(* A small metrics registry in the Prometheus data model: named series
   carrying counters (monotone ints), gauges (floats) or histograms
   (count/sum plus a bounded reservoir summarized through {!Stats}).
   Registration is find-or-create on (name, labels), so independent
   subsystems can hold direct handles to the same series.

   Mutation through a handle is a plain field write — the registry is
   meant for the coordinator domain's hot paths, where an atomic or a
   lock per increment would dominate the cost of what is being counted.
   Registration and export take the registry lock. *)

type histo = {
  mutable h_count : int;
  mutable h_sum : float;
  h_samples : float array;  (* cyclic reservoir of the newest observations *)
  mutable h_stored : int;   (* samples currently valid, <= capacity *)
  mutable h_next : int;     (* next write position *)
}

type counter = { mutable c : int }
type gauge = { mutable g : float }
type histogram = histo

type cell = Counter of counter | Gauge of gauge | Histogram of histo

type series = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_cell : cell;
}

type t = {
  mutable series : series list; (* reverse registration order *)
  index : (string, series) Hashtbl.t;
  mu : Mutex.t;
}

let create () = { series = []; index = Hashtbl.create 32; mu = Mutex.create () }

let key name labels =
  match labels with
  | [] -> name
  | _ ->
      let b = Buffer.create 48 in
      Buffer.add_string b name;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b '\x00';
          Buffer.add_string b k;
          Buffer.add_char b '\x01';
          Buffer.add_string b v)
        labels;
      Buffer.contents b

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let register t ~help ~labels name make =
  locked t (fun () ->
      let k = key name labels in
      match Hashtbl.find_opt t.index k with
      | Some s -> s.s_cell
      | None ->
          let s =
            { s_name = name; s_help = help; s_labels = labels; s_cell = make () }
          in
          Hashtbl.add t.index k s;
          t.series <- s :: t.series;
          s.s_cell)

let counter t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metric.counter: %s is not a counter" name)

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Metric.gauge: %s is not a gauge" name)

let histogram t ?(help = "") ?(labels = []) ?(samples = 8192) name =
  if samples <= 0 then invalid_arg "Metric.histogram: samples must be positive";
  let make () =
    Histogram
      {
        h_count = 0;
        h_sum = 0.0;
        h_samples = Array.make samples 0.0;
        h_stored = 0;
        h_next = 0;
      }
  in
  match register t ~help ~labels name make with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Metric.histogram: %s is not a histogram" name)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let set c n = c.c <- n

let set_gauge g v = g.g <- v
let add_gauge g v = g.g <- g.g +. v
let max_gauge g v = if v > g.g then g.g <- v

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_samples.(h.h_next) <- v;
  h.h_next <- (h.h_next + 1) mod Array.length h.h_samples;
  if h.h_stored < Array.length h.h_samples then h.h_stored <- h.h_stored + 1

let histogram_summary h =
  if h.h_stored = 0 then None
  else Some (Stats.summarize (Array.sub h.h_samples 0 h.h_stored))

let find_counter t ?(labels = []) name =
  locked t (fun () ->
      match Hashtbl.find_opt t.index (key name labels) with
      | Some { s_cell = Counter c; _ } -> Some c.c
      | _ -> None)

let find_gauge t ?(labels = []) name =
  locked t (fun () ->
      match Hashtbl.find_opt t.index (key name labels) with
      | Some { s_cell = Gauge g; _ } -> Some g.g
      | _ -> None)

let counter_samples t =
  locked t (fun () ->
      List.rev t.series
      |> List.filter_map (fun s ->
             match s.s_cell with
             | Counter c -> Some (s.s_name, s.s_labels, c.c)
             | _ -> None))

let reset t =
  locked t (fun () ->
      List.iter
        (fun s ->
          match s.s_cell with
          | Counter c -> c.c <- 0
          | Gauge g -> g.g <- 0.0
          | Histogram h ->
              h.h_count <- 0;
              h.h_sum <- 0.0;
              h.h_stored <- 0;
              h.h_next <- 0)
        t.series)

(* --- Prometheus text exposition --------------------------------------- *)

let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'

let render_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let sample buf name labels v =
  Buffer.add_string buf name;
  render_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf v;
  Buffer.add_char buf '\n'

let quantile_samples buf name labels h =
  (match histogram_summary h with
  | None -> ()
  | Some s ->
      List.iter
        (fun (q, v) ->
          sample buf name (labels @ [ ("quantile", q) ]) (render_float v))
        [
          ("0.5", s.Stats.median); ("0.9", s.Stats.p90); ("0.99", s.Stats.p99);
        ]);
  sample buf (name ^ "_sum") labels (render_float h.h_sum);
  sample buf (name ^ "_count") labels (string_of_int h.h_count)

let type_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "summary"

(* The exposition format requires every sample of a metric name to sit in
   one block under a single TYPE line, so group by name (first-seen order)
   across all the registries being merged. *)
let to_prometheus_all regs =
  let all =
    List.concat_map (fun t -> locked t (fun () -> List.rev t.series)) regs
  in
  let names = ref [] in
  List.iter
    (fun s -> if not (List.mem s.s_name !names) then names := s.s_name :: !names)
    all;
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let group = List.filter (fun s -> s.s_name = name) all in
      (match group with
      | s :: _ ->
          if s.s_help <> "" then
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" name (escape_label s.s_help));
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" name (type_name s.s_cell))
      | [] -> ());
      List.iter
        (fun s ->
          match s.s_cell with
          | Counter c -> sample buf name s.s_labels (string_of_int c.c)
          | Gauge g -> sample buf name s.s_labels (render_float g.g)
          | Histogram h -> quantile_samples buf name s.s_labels h)
        group)
    (List.rev !names);
  Buffer.contents buf

let to_prometheus t = to_prometheus_all [ t ]
