let ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let intensity_char v =
  let v = Float.max 0.0 (Float.min 1.0 v) in
  let idx = int_of_float (v *. 9.0 +. 0.5) in
  ramp.(max 0 (min 9 idx))

let render ppf ~row_label cells =
  let hi =
    Array.fold_left
      (fun acc row -> Array.fold_left Float.max acc row)
      0.0 cells
  in
  Array.iteri
    (fun i (row : float array) ->
      let line =
        String.init (Array.length row) (fun j ->
            intensity_char (if hi <= 0.0 then 0.0 else row.(j) /. hi))
      in
      Format.fprintf ppf "%s |%s|@." (row_label i) line)
    cells
