(** String-keyed frequency counters, the data structure behind the
    kernel-invocation-frequency tool (paper Fig. 7). *)

type t

val create : unit -> t
val add : t -> ?count:int -> string -> unit
val count : t -> string -> int
val total : t -> int
val distinct : t -> int

val to_sorted : t -> (string * int) list
(** Bindings sorted by decreasing count, then lexicographically. *)

val top : t -> int -> (string * int) list

val merge : t -> t -> t
(** [merge a b] is a fresh histogram with the summed counts. *)

val pp : ?limit:int -> Format.formatter -> t -> unit
(** One "name count" row per binding, most frequent first. *)
