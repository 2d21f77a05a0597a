type t = (string, int) Hashtbl.t

let create () = Hashtbl.create 64

let add t ?(count = 1) key =
  match Hashtbl.find_opt t key with
  | Some n -> Hashtbl.replace t key (n + count)
  | None -> Hashtbl.add t key count

let count t key = Option.value ~default:0 (Hashtbl.find_opt t key)
let total t = Hashtbl.fold (fun _ n acc -> acc + n) t 0
let distinct t = Hashtbl.length t

let to_sorted t =
  let items = Hashtbl.fold (fun k n acc -> (k, n) :: acc) t [] in
  List.sort
    (fun (k1, n1) (k2, n2) ->
      match compare n2 n1 with 0 -> compare k1 k2 | c -> c)
    items

let top t k =
  let sorted = to_sorted t in
  List.filteri (fun i _ -> i < k) sorted

let merge a b =
  let out = create () in
  Hashtbl.iter (fun k n -> add out ~count:n k) a;
  Hashtbl.iter (fun k n -> add out ~count:n k) b;
  out

let pp ?limit ppf t =
  let rows = to_sorted t in
  let rows = match limit with None -> rows | Some k -> List.filteri (fun i _ -> i < k) rows in
  List.iter (fun (k, n) -> Format.fprintf ppf "%-60s %10d@." k n) rows
