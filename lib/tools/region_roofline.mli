(** Region-level roofline classification.

    Places every instrumented kernel region ({!Gpusim.Instrpass}) on the
    bytes-vs-ops plane of the device's roofline model: a region whose
    arithmetic intensity (flops per byte of cost-model traffic) falls
    below the device's ridge point is memory-bound, above it
    compute-bound; regions that move no bytes and do no flops (prologue,
    barrier, epilogue probes) are latency-bound.  Running under the
    parallel-reduction backend additionally annotates memory regions with
    their {e measured} weighted access counts from
    {!Pasta.Devagg.summary.regions}, which stay unbiased under sampling
    (inverse-probability weights). *)

type bound = Memory_bound | Compute_bound | Latency_bound

type t

val create : ?arch:Gpusim.Arch.t -> unit -> t
(** [arch] parameterizes the roofline (default {!Gpusim.Arch.a100}). *)

val tool : t -> Pasta.Tool.t

val classify : t -> (string * string * bound) list
(** [(kernel, region label, bound)] for every observed region, kernels in
    first-seen order, regions in static (pc) order. *)
