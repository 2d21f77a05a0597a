(** Per-region latency breakdown of instrumented kernels.

    Consumes the intra-kernel region stream ([Region_enter]/[Region_exit],
    produced by {!Gpusim.Instrpass} probes when [ACCEL_PROF_REGIONS] is
    [coarse] or [fine]) together with kernel-end summaries, and attributes
    every kernel's wall time to its static regions.  The instrumentation
    pass partitions each launch's duration {e exactly}, so the per-kernel
    region rows sum to the kernel's cumulative wall time bit-for-bit; the
    report states the match (or flags a mismatch, which would indicate a
    partition bug upstream). *)

type t

val create : unit -> t
val tool : t -> Pasta.Tool.t

val totals : t -> (string * float * float) list
(** Per kernel name in first-seen order:
    [(kernel, wall_us, region_sum_us)] — cumulative kernel wall time from
    launch-end summaries and the sum of all region times attributed to
    that kernel.  For instrumented kernels the two are exactly equal. *)

val region_sum_us : t -> string -> float
(** Sum of region time attributed to one kernel name (0 if unknown). *)
