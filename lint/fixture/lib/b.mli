(* Used whole, as a functor argument: neither value is reported. *)

val first : int
val second : int
