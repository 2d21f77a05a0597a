(** Simulated device virtual-address-space allocator.

    Backs both [cudaMalloc]-style device allocations and
    [cudaMallocManaged]-style UVM allocations.  No data is stored — the
    simulator only tracks extents — but the allocator enforces the
    invariants a real allocator would: allocations never overlap, frees must
    hit a live base address, and adjacent free regions coalesce.

    Address-to-allocation lookup ({!find_containing}) is the primitive the
    working-set tool builds on: it resolves a memory-access address to the
    memory object it belongs to. *)

type alloc = {
  base : int;
  bytes : int;
  tag : string;  (** caller-supplied label, e.g. "cudaMalloc" or a pool id *)
  managed : bool;  (** allocated through the UVM path *)
  seq : int;  (** allocation order, for stable reporting *)
}

type t

val create : ?base:int -> capacity:int -> unit -> t
(** [create ~capacity ()] manages a VA range of [capacity] bytes starting
    at [base] (default 0x7f00_0000_0000, a plausible device VA).  Raises
    [Invalid_argument] if [capacity <= 0]. *)

val used_bytes : t -> int
val live_count : t -> int

exception Out_of_memory of { requested : int; available : int }

val alloc : t -> ?tag:string -> ?managed:bool -> int -> alloc
(** First-fit allocation, 512-byte aligned like the CUDA allocator.
    Zero-byte requests are rounded to one alignment unit.  Raises
    {!Out_of_memory} when no free region fits and [Invalid_argument] on a
    negative size. *)

val free : t -> int -> alloc
(** [free t base] releases the allocation at exactly [base] and returns its
    record.  Raises [Invalid_argument] if [base] is not a live allocation
    base (double free / invalid free). *)

val find_containing : t -> int -> alloc option
(** The live allocation whose extent contains the given address. *)

val live : t -> alloc list
(** Live allocations in increasing base order. *)

val check_invariants : t -> unit
(** Validates no-overlap, ordering and accounting; raises [Failure] with a
    diagnostic on violation.  Used by the property tests. *)
