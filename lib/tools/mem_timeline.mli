(** Memory-usage-over-time tool (paper §V-D, Figs. 14 and 15).

    Samples the framework's live allocation total at every tensor
    allocation and release, producing the ramp-up / peak / ramp-down
    curves of a training iteration, plus allocator-traffic counters for
    the cross-vendor comparison (NVIDIA issues fewer allocation events,
    AMD more, per Fig. 14). *)

type t

val create : unit -> t
val tool : t -> Pasta.Tool.t

val timeline : t -> Pasta_util.Timeline.t
(** (simulated time, live framework bytes) samples. *)

val peak_bytes : t -> float
val alloc_events : t -> int
val free_events : t -> int

val series : t -> buckets:int -> float array
(** Bucketized live-bytes curve (MB). *)
