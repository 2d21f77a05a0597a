(** Sorted, coalesced free-extent lists.

    Shared bookkeeping for the simulated allocators (the device VA
    allocator and the framework caching allocator): a list of disjoint
    [(base, bytes)] holes kept sorted by base, with adjacent holes merged
    on insertion. *)

type t
(** Immutable; operations return updated lists. *)

val singleton : base:int -> bytes:int -> t
val is_empty : t -> bool

val insert : t -> base:int -> bytes:int -> t
(** Add a hole, coalescing with adjacent holes.  Raises [Invalid_argument]
    if the hole overlaps an existing one or [bytes <= 0]. *)

val take_first_fit : t -> bytes:int -> (int * t) option
(** Carve [bytes] out of the lowest-based hole large enough; returns the
    carved base and the remaining list. *)

val take_at : t -> base:int -> bytes:int -> t option
(** Carve [bytes] from the front of the hole starting exactly at [base];
    [None] when no such hole exists or it is too small.  Used by best-fit
    allocation once a specific hole has been chosen. *)

val total : t -> int
val holes : t -> (int * int) list
(** In increasing base order. *)
