(** Byte quantities: constructors, arithmetic helpers and human-readable
    formatting matching the unit conventions of the paper's Table V
    ("512 B", "1.00 KB", "1528.13 MB", sizes in MB by default). *)

type t = int
(** A size in bytes.  We keep a plain [int]: on a 64-bit platform this
    covers every quantity in the reproduction (device memories are <= 192
    GB). *)

val kib : int -> t
val mib : int -> t
val gib : int -> t

val to_mib_f : t -> float
(** Size expressed in binary megabytes as a float. *)

val pp : Format.formatter -> t -> unit
(** Adaptive unit: "512 B", "47.50 KB", "212.62 MB", "4.05 GB". *)

val to_string : t -> string

val align_up : t -> align:int -> t
(** [align_up n ~align] rounds [n] up to a multiple of [align].
    Requires [align > 0]. *)
