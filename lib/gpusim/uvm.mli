(** Unified Virtual Memory subsystem.

    Page-granular (2 MiB) managed memory shared between host and device,
    with demand migration on kernel access, LRU-approximate eviction under
    capacity pressure, and the optimization APIs the paper's UVM tools
    drive: bulk prefetch ([cudaMemPrefetchAsync]), pinning
    ([cudaMemAdvise(SetPreferredLocation)]) and proactive eviction.

    The device capacity visible to UVM is configurable below the physical
    memory size, which is how the paper (and we) impose a controlled
    oversubscription factor (§V-A: "we limit device memory capacity by
    allocating a specified amount in advance"). *)

type stats = {
  mutable faults : int;  (** faulted pages *)
  mutable refaults : int;  (** faults on pages previously evicted — thrashing *)
  mutable migrated_bytes : int;  (** demand-migration traffic, host to device *)
  mutable prefetched_bytes : int;
  mutable prefetch_calls : int;
  mutable evicted_pages : int;
  mutable fault_stall_us : float;  (** total time spent in fault handling *)
  mutable prefetch_us : float;
  mutable evict_us : float;
}

type t

val create : Arch.t -> Clock.t -> capacity:int -> t
(** [capacity] is the device bytes available to managed pages.  Raises
    [Invalid_argument] if smaller than one page. *)

val capacity_pages : t -> int
val resident_pages : t -> int

val register_range : t -> base:int -> bytes:int -> unit
(** Declare a managed allocation.  All pages start host-resident.
    Overlapping registrations raise [Invalid_argument]. *)

val unregister_range : t -> base:int -> unit
(** Forget a managed allocation (its resident pages are released without
    write-back cost, as on [cudaFree]).  Unknown bases raise
    [Invalid_argument]. *)

val is_managed : t -> int -> bool
(** Whether an address falls inside a registered range. *)

val touch : t -> base:int -> bytes:int -> faulted_pages:int ref -> unit
(** Kernel access to [\[base, base+bytes)]: fault in every non-resident
    page (charging fault latency and migration bandwidth on the clock,
    evicting LRU pages if the device is full) and refresh the LRU stamps
    of the whole extent.  Addresses outside managed ranges are ignored —
    ordinary device memory never faults.  [faulted_pages] is incremented
    by the number of pages migrated. *)

val prefetch : t -> base:int -> bytes:int -> unit
(** Bulk migration of the extent's non-resident pages at link bandwidth
    with a single call overhead — no per-page fault latency.  Evicts under
    pressure exactly like {!touch}.  Ignored outside managed ranges. *)

val evict_range : t -> base:int -> bytes:int -> unit
(** Proactively write the extent's resident (unpinned) pages back to the
    host. *)

val pin : t -> base:int -> bytes:int -> unit
(** Mark the extent's pages as preferring device residency; eviction skips
    them unless nothing else is left. *)

val unpin : t -> base:int -> bytes:int -> unit

val stats : t -> stats
val reset_stats : t -> unit

val check_invariants : t -> unit
(** Residency accounting and capacity bound; raises [Failure] on
    violation. *)
