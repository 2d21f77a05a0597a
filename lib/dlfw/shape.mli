(** Tensor shapes: ordered dimension lists. *)

type t = int list

val numel : t -> int
(** Product of dimensions; 1 for the scalar shape [[]].  Raises
    [Invalid_argument] on a non-positive dimension. *)

val bytes : t -> Dtype.t -> int
val to_string : t -> string
val equal : t -> t -> bool
