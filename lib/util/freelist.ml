type t = (int * int) list

let singleton ~base ~bytes = [ (base, bytes) ]
let is_empty t = t = []

let insert t ~base ~bytes =
  if bytes <= 0 then invalid_arg "Freelist.insert: non-positive size";
  let rec go = function
    | [] -> [ (base, bytes) ]
    | (b, n) :: rest when base + bytes < b -> (base, bytes) :: (b, n) :: rest
    | (b, n) :: rest when base + bytes = b -> (base, bytes + n) :: rest
    | (b, n) :: rest when b + n = base -> (
        match rest with
        | (b2, n2) :: rest2 when b + n + bytes = b2 -> (b, n + bytes + n2) :: rest2
        | _ -> (b, n + bytes) :: rest)
    | (b, n) :: rest when b + n < base -> (b, n) :: go rest
    | _ -> invalid_arg "Freelist.insert: overlapping hole"
  in
  go t

let take_first_fit t ~bytes =
  let rec go acc = function
    | [] -> None
    | (b, n) :: rest when n >= bytes ->
        let remaining = if n = bytes then rest else (b + bytes, n - bytes) :: rest in
        Some (b, List.rev_append acc remaining)
    | hole :: rest -> go (hole :: acc) rest
  in
  go [] t

let take_at t ~base ~bytes =
  let rec go acc = function
    | [] -> None
    | (b, n) :: rest when b = base ->
        if n < bytes then None
        else
          let remaining = if n = bytes then rest else (b + bytes, n - bytes) :: rest in
          Some (List.rev_append acc remaining)
    | hole :: rest -> go (hole :: acc) rest
  in
  go [] t

let total t = List.fold_left (fun acc (_, n) -> acc + n) 0 t
let holes t = t
