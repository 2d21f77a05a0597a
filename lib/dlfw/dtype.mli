(** Tensor element types. *)

type t = F32 | F16 | I64 | I32 | U8

val size_bytes : t -> int
