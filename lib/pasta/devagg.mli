(** Device-side partial aggregation of access batches.

    The parallel preprocessing path reduces each generation chunk into
    weighted tallies — per-object counts (through an {!Objmap.view}
    snapshot), a [block_bytes]-granular access histogram and a per-region
    count — and merges them once per kernel into one {!summary}.  The
    processor keeps one {!accum} per worker domain.  Aggregation is pure
    with respect to shared state, so chunks can be reduced on any domain;
    the merged {!summary} is identical for every domain count.  Counts
    are weighted, i.e. exact true-access totals. *)

val block_bytes : int
(** Histogram granularity (2 MiB, matching the hotness tool's blocks). *)

type summary = {
  objects : (Objmap.obj * int) list;  (** weighted counts, sorted by object key *)
  blocks : (int * int) list;  (** (block index, weighted count), sorted *)
  regions : (int * int) list;
      (** (kernel memory-region index, weighted count), sorted: each
          generation chunk carries its region in the batch header, so the
          tally costs one bump per batch and sums to [true_accesses] —
          the per-region analogue of the object counts, feeding the
          region-level roofline under sampling *)
  sampled_records : int;
  true_accesses : int;  (** sum of record weights *)
  writes : int;  (** weighted write accesses *)
  est_rate : float;
      (** effective sampling rate behind the counts: 1.0 means exact totals,
          below 1.0 the weighted sums are unbiased estimates (records carry
          inverse-probability weights from {!Gpusim.Warp.thin}) *)
}

type accum
(** A per-worker-domain accumulator: reused across every chunk the
    worker reduces, it holds nothing but weighted tally tables (objects,
    blocks, regions) and three running counts.  NOT safe for concurrent
    use — one accumulator per worker. *)

val accum_create : unit -> accum

val accum_reset : accum -> unit
(** Empty the accumulator for reuse on the next kernel while keeping its
    grown tables, so a long-lived accumulator reaches a steady-state
    footprint and stops allocating. *)

val accum_add : accum -> Objmap.view -> Gpusim.Warp.batch -> unit
(** Reduce one batch into the accumulator as {e runs}: maximal stretches
    of consecutive records that resolve to the same object (through a
    resolve memo kept per batch) or fall in the same block, each bumping
    its tally once in the persistent tables.  A dense batch yields its
    runs by a scan of its columns; a descriptor
    ({!Gpusim.Warp.shape}) yields exactly the same runs by arithmetic
    through the descriptor walker ({!Gpusim.Warp.walk}), one step
    per object limit, block boundary or stride wrap, without building
    columns.  Nothing is allocated per record or per run. *)

val merge_accums : ?est_rate:float -> accum array -> summary
(** Merge per-worker accumulators once per kernel, in place: accumulators
    1..n-1 are folded, in order, into accumulator 0's tables and then
    reset ({!accum_reset}), and the summary is emitted from accumulator
    0, each list sorted by key.  No table is created.  The result is the
    same at any domain count — sums do not depend on which worker reduced
    which chunk — and a key shared by several accumulators keeps the
    object of the first one that holds it.  Merging the same array again
    gives the same summary, since accumulator 0 then holds everything.
    [est_rate] (default 1.0) stamps the sampling rate the batches were
    thinned at, so consumers can annotate estimates.  Raises
    [Invalid_argument] on an empty array. *)

val merge_summaries : ?est_rate:float -> summary list -> summary
(** Combine already-merged summaries into one — the merge-node primitive
    of a hierarchical (fleet) reduction.  Order-insensitive: counts are
    sums and outputs are sorted, so any reduction tree over the same
    inputs yields the same bytes.  [est_rate] defaults to the
    record-weighted mean of the inputs' rates. *)

val validate : summary -> (unit, string) result
(** Structural integrity check for failure-aware merge nodes: object,
    block and region weights must each sum to [true_accesses], output
    lists must be sorted with positive counts, [est_rate] in (0, 1].
    [Error] names the violated invariant. *)

val rel_stderr : summary -> float
(** Relative standard error of the summary's weighted totals,
    [sqrt ((1 - p) / (n * p))] for [n] kept records at rate [p]; [0.0] for
    exact (rate-1.0) summaries. *)

val pp : Format.formatter -> summary -> unit
