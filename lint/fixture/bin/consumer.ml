(* Alias bindings (top-level or local) use nothing by themselves: only
   the values named through them count. *)
module A = Fixlib.A

module Sum (X : sig
  val first : int
  val second : int
end) =
struct
  let total = X.first + X.second
end

module S = Sum (Fixlib.B)

let nested =
  let module N = Fixlib.A.Nested in
  N.used

let () = print_int (A.by_alias 1 + Fixlib.A.by_wrapper + nested + S.total)
