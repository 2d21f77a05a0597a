(** Pool-based caching allocator, modeled on PyTorch's
    [CUDACachingAllocator].

    Device memory is requested from the runtime in large *segments*
    ([cudaMalloc] / [cudaMallocManaged]) and subdivided to serve tensor
    allocations: requests are rounded to 512 B, small requests (< 1 MiB)
    come from 2 MiB segments, mid-size requests from 20 MiB segments, and
    big requests get their own segment.  Freed blocks return to their
    segment's free list and coalesce for reuse.

    This pooling is the behaviour that breaks object-level UVM prefetching
    (paper §V-C1): one runtime-visible memory object (a segment) holds many
    tensors with unrelated lifetimes and access patterns.

    Every block allocation/release fires {!Callbacks.report_memory_usage},
    mirroring [c10::reportMemoryUsage]. *)

type block = {
  id : int;
  base : int;
  bytes : int;  (** rounded size actually reserved for the block *)
  requested : int;
  seg_base : int;  (** owning segment — the runtime-visible memory object *)
  seg_bytes : int;
}

type t

val create : ?managed:bool -> Gpusim.Device.t -> t
(** [managed] routes segment allocation through [malloc_managed], putting
    the whole pool under UVM. *)

val alloc : t -> ?tag:string -> int -> block
(** Best-fit over the pool's free blocks, 512-byte aligned like the CUDA
    caching allocator.  Raises [Invalid_argument] on a negative size.
    Propagates
    {!Gpusim.Device_mem.Out_of_memory} after releasing cached segments
    fails to make room. *)

val free : t -> block -> unit
(** Raises [Invalid_argument] on double free. *)

val allocated_bytes : t -> int
(** Live block bytes. *)

val reserved_bytes : t -> int
(** Device bytes held in segments. *)

val peak_allocated : t -> int
val peak_reserved : t -> int
val segment_count : t -> int

val segment_of_addr : t -> int -> (int * int) option
(** Owning segment of an address inside the pool. *)

val release_cached : t -> unit
(** Return empty segments to the device ([emptyCache]). *)

val destroy : t -> unit
(** Free all segments unconditionally; the pool must not be used after.
    Blocks still live are abandoned (their tensors become dangling), which
    mirrors allocator teardown at process exit. *)

val check_invariants : t -> unit
