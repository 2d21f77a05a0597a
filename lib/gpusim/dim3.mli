(** CUDA-style three-dimensional launch geometry. *)

type t = { x : int; y : int; z : int }

val make : ?y:int -> ?z:int -> int -> t
(** [make ?y ?z x] with [y] and [z] defaulting to 1.  All components must
    be positive. *)

val total : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
