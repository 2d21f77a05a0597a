(* An open uses nothing by itself either. *)
let () =
  let open Fixlib.A in
  print_int test_only
