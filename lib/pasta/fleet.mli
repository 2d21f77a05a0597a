(** Fleet-scale profiling with failure-tolerant hierarchical aggregation.

    One orchestrator drives [devices] per-device profiling shards — each a
    full {!Session} over a fresh seeded simulated device — and merges
    their {!Devagg} summaries through a fanout-[K] tree reduction whose
    every merge node is failure-aware: inputs are validated
    ({!Devagg.validate}), corrupted summaries are dropped with their
    origin devices reported, and the reduction completes with a partial
    result naming exactly which devices are missing, stale or estimated.

    Failure handling per device: a deadline on cumulative simulated time
    with jittered exponential-backoff retries (bounded attempts), a
    fleet-level {!Guard} quarantining repeatedly-crashing devices, and
    [Stale] delivery for a final attempt landing past the deadline.  When
    devices drop out, the aggregate's effective sampling rate is re-scaled
    by coverage (inverse-probability re-weighting), so its estimate
    annotation and {!Devagg.rel_stderr} widen accordingly.

    Everything is byte-deterministic: failure decisions are pure functions
    of the fleet seed ({!Gpusim.Faults.device_fate},
    {!Gpusim.Faults.corrupt_summary_at}), timing decisions are on the
    simulated clock, and merge nodes are pure and executed level-by-level
    over the domain pool — the same seed produces the same {!result.report}
    bytes at any domain count, live or {!replay}ed.

    Device shards run sequentially on the orchestrator (sessions keep
    per-process state); only the merge levels parallelize. *)

(** {2 Reduction topology}

    The topology is pure data: stable for (leaves, fanout), so the
    reduction and anything that reports on it walk the identical tree. *)

type plan_node = {
  pn_id : int;  (** level-major ordinal, stable for (leaves, fanout) *)
  pn_children : int list;  (** indices into the previous level (or leaves) *)
}

type plan = {
  pl_leaves : int;
  pl_fanout : int;
  pl_levels : plan_node array list;  (** bottom-up; last level is the root *)
}

val plan : fanout:int -> int -> plan
(** [plan ~fanout leaves].  Raises [Invalid_argument] when [fanout < 2] or
    [leaves < 0]. *)

val plan_nodes : plan -> int
(** Total merge nodes. *)

(** {2 Failure-aware reduction} *)

type reduction = {
  red_summary : Devagg.summary option;
  red_devices : int list;  (** leaf indices aggregated, sorted *)
  red_dropped : (int * int list) list;
      (** (merge node id, leaf indices dropped there), sorted *)
  red_nodes : int;
}

val reduce :
  ?pool:Pasta_util.Domain_pool.t ->
  ?rates:Gpusim.Faults.fleet_rates ->
  seed:int64 ->
  fanout:int ->
  Devagg.summary option array ->
  reduction
(** Merge the leaf summaries ([None] = missing leaf) through the tree.
    With [rates], summary corruption is injected at merge inputs keyed by
    (seed, node, child); every input — corrupted or not — is validated and
    dropped on failure.  Deterministic for any [pool] size. *)

val flat_merge : Devagg.summary list -> Devagg.summary option
(** Single-node baseline (one [merge_summaries] over everything): the
    flat-concat aggregation the benchmarks compare the tree against. *)

(** {2 Fleet orchestration} *)

type cfg = {
  devices : int;
  fanout : int;
  deadline_us : float;
  retries : int;
  backoff_base_us : float;
  seed : int64;
  kernels : int;
  accesses_per_kernel : int;
  fault_rates : Gpusim.Faults.fleet_rates option;
  sample_rate : float option;
  overhead_budget : float option;
  capture_prefix : string option;
}

val default_cfg : ?devices:int -> unit -> cfg
(** Defaults from the [ACCEL_PROF_FLEET_*] knobs ({!Config}); 4 devices, 3
    kernels of 20k accesses per shard, no fault injection, no capture. *)

val trace_path : string -> int -> string
(** [trace_path prefix d] is [<prefix>.devNNN.ptrace]. *)

type reason = Crashed | Quarantined | Timeout
type status = Fresh | Stale | Missing of reason

val reason_name : reason -> string

type device_report = {
  fr_dev : int;
  fr_status : status;
  fr_attempts : int;
  fr_spent_us : float;
}

type result = {
  devices : device_report list;
  summary : Devagg.summary option;
  dropped_at_merge : (int * int list) list;
  fresh : int;
  stale : int;
  missing : int;
  retries_total : int;
  quarantined_total : int;
  merge_nodes : int;
  coverage : float;
  records_dropped : int;
  registry : Pasta_util.Metric.t;
  report : string;
}

val run : cfg -> result
(** Profile the fleet.  Raises [Invalid_argument] on a malformed [cfg];
    injected failures never escape. *)

val replay : cfg -> result
(** Rebuild the result from the per-device traces a captured {!run} left
    at [cfg.capture_prefix] (required).  Byte-identical report when
    sampling was deterministic (fixed rate or none).  Raises
    [Invalid_argument] without a capture prefix. *)
