(* Minimal JSON for the newline-delimited serve protocol: a value type, a
   one-line printer and a recursive-descent parser.  No external deps, no
   streaming — requests and responses are single lines, so a value is
   parsed from (and printed to) one complete string.

   Numbers: integers print without a decimal point and parse back as
   [Int]; everything else is [Float].  Strings are escaped so the printed
   form never contains a raw newline — the framing invariant the
   line-delimited protocol depends on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing --------------------------------------------------------- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_value b v)
        vs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          add_value b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  add_value b v;
  Buffer.contents b

(* --- parsing ---------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    && match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected %c" c)

let literal cur word v =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.s then fail cur "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = cur.s.[cur.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "bad \\u escape"
    in
    v := (!v * 16) + d
  done;
  cur.pos <- cur.pos + 4;
  !v

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' ->
        cur.pos <- cur.pos + 1;
        (match peek cur with
        | Some '"' -> Buffer.add_char b '"'; cur.pos <- cur.pos + 1
        | Some '\\' -> Buffer.add_char b '\\'; cur.pos <- cur.pos + 1
        | Some '/' -> Buffer.add_char b '/'; cur.pos <- cur.pos + 1
        | Some 'n' -> Buffer.add_char b '\n'; cur.pos <- cur.pos + 1
        | Some 'r' -> Buffer.add_char b '\r'; cur.pos <- cur.pos + 1
        | Some 't' -> Buffer.add_char b '\t'; cur.pos <- cur.pos + 1
        | Some 'b' -> Buffer.add_char b '\b'; cur.pos <- cur.pos + 1
        | Some 'f' -> Buffer.add_char b '\012'; cur.pos <- cur.pos + 1
        | Some 'u' ->
            cur.pos <- cur.pos + 1;
            let code = parse_hex4 cur in
            (* Escaped codepoints are produced by our own printer only for
               control characters, so a byte-wide decode is enough; wider
               codepoints degrade to '?' rather than failing. *)
            Buffer.add_char b (if code < 0x100 then Char.chr code else '?')
        | _ -> fail cur "bad escape");
        go ()
    | Some c ->
        Buffer.add_char b c;
        cur.pos <- cur.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  let tok = String.sub cur.s start (cur.pos - start) in
  let has c = String.contains tok c in
  if (not (has '.')) && (not (has 'e')) && not (has 'E') then
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail cur "bad number")
  else
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail cur "bad number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value cur :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              go ()
          | Some ']' -> cur.pos <- cur.pos + 1
          | _ -> fail cur "expected , or ]"
        in
        go ();
        List (List.rev !items)
      end
  | Some '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else begin
        let items = ref [] in
        let rec go () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          items := (k, v) :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              go ()
          | Some '}' -> cur.pos <- cur.pos + 1
          | _ -> fail cur "expected , or }"
        in
        go ();
        Obj (List.rev !items)
      end
  | Some _ -> parse_number cur

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* --- object accessors -------------------------------------------------- *)

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field k v = match mem k v with Some (Str s) -> Some s | _ -> None

(* An integral float converts only inside [int]'s range, [-2^62, 2^62):
   [int_of_float] wraps anything outside it (an id of 2^63 read as 0). *)
let int_field k v =
  match mem k v with
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      Some (int_of_float f)
  | _ -> None

(* Non-finite values are refused: the printer renders them as [null], so
   they could not survive a round trip. *)
let float_field k v =
  match mem k v with
  | Some (Float f) when Float.is_finite f -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let bool_field k v = match mem k v with Some (Bool b) -> Some b | _ -> None
