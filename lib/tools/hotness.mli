(** Time-series hotness analysis (paper §V-C2, Fig. 13).

    Tracks access counts per 2 MiB virtual-memory block over time windows,
    from the GPU-aggregated region summaries.  Blocks hot across the whole
    run hold long-lived data (model parameters — prefetch and pin them);
    blocks with bursty, narrow access windows hold transient data
    (activations / KV-cache — candidates for proactive eviction). *)

type t

val create : ?time_buckets:int -> unit -> t
val tool : t -> Pasta.Tool.t

val tool_fine : t -> Pasta.Tool.t
(** Fine-grained variant ([Gpu_parallel] analysis model): block heat
    comes from the sampled records of the parallel device-side reduction
    ({!Pasta.Devagg}, same 2 MiB blocks) rather than an even per-region
    share, so hot spots inside a large region stand out. *)

type classification = Persistent_hot | Bursty | Cold

val matrix : t -> float array array
(** [blocks x time_buckets] access-count matrix (row 0 is the lowest
    block).  Empty when nothing was observed.  Each cell sums its samples
    newest first, so the coarse tool's fractional shares round the same
    way on every build. *)

val block_bytes : int
val block_count : t -> int

val classify : t -> (int * classification) list
(** Per block-row classification: [Persistent_hot] when accessed in at
    least 60% of time windows, [Bursty] when at least 90% of its accesses
    fall within 20% of windows, [Cold] otherwise.  A row's total sums its
    windows in row order; the top windows are the row's largest
    [max 1 (time_buckets / 5)], summed in descending order. *)

val prefetch_candidates : t -> int list
(** Block rows worth pinning in device memory. *)

val evict_candidates : t -> int list

val report : t -> Format.formatter -> unit
(** Heatmap plus the candidate counts, from one matrix and one
    classification. *)
