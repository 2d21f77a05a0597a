type t = { x : int; y : int; z : int }

let make ?(y = 1) ?(z = 1) x =
  if x <= 0 || y <= 0 || z <= 0 then invalid_arg "Dim3.make: non-positive component";
  { x; y; z }

let total { x; y; z } = x * y * z
let pp ppf { x; y; z } = Format.fprintf ppf "(%d,%d,%d)" x y z
let to_string t = Format.asprintf "%a" pp t
