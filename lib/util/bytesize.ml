type t = int

let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024
let to_mib_f n = float_of_int n /. 1048576.0

let pp ppf n =
  let f = float_of_int n in
  if n < 1024 then Format.fprintf ppf "%d B" n
  else if n < 1024 * 1024 then Format.fprintf ppf "%.2f KB" (f /. 1024.0)
  else if n < 1024 * 1024 * 1024 then Format.fprintf ppf "%.2f MB" (f /. 1048576.0)
  else Format.fprintf ppf "%.2f GB" (f /. 1073741824.0)

let to_string n = Format.asprintf "%a" pp n

let align_up n ~align =
  if align <= 0 then invalid_arg "Bytesize.align_up: align must be positive";
  (n + align - 1) / align * align
