(** The PASTA event processor (paper §III-B): the dispatch and
    preprocessing layer between the event handler and the tools.

    It maintains the memory-object registry from the event stream, applies
    the range filter, enriches fine-grained data (resolving raw addresses
    to objects), and routes each event to the active tool's callbacks.
    For GPU-accelerated analysis it accumulates per-kernel region
    aggregates and flushes them as object-level summaries when the kernel
    completes.

    Every tool callback runs under a {!Guard} circuit breaker — a raising
    tool is counted, eventually quarantined, and never takes the workload
    down.  Fine-grained access records flow through a bounded ring, one
    piece of a channel's hand-off per slot, with a configurable overflow
    policy; drops and stalls are accounted in the processor's metric
    registry.

    All pipeline counters live in a per-processor {!Pasta_util.Metric}
    registry ({!metrics}); health reports read them from there. *)

type sink_op =
  | Sk_event of Event.payload
  | Sk_batch of Event.kernel_info * Gpusim.Warp.batch
  | Sk_region of Event.kernel_info * Event.region_summary
  | Sk_flush_summary of Event.kernel_info
  | Sk_flush_parallel of Event.kernel_info
  | Sk_profile of Event.kernel_info * Gpusim.Kernel.profile
  | Sk_rate of { sr_rate : float; sr_grid_id : int }
      (** Submission-level operations, one constructor per processor entry
          point.  A sink sees every submission in arrival order, before
          range filtering and buffering — a recorded op stream re-driven
          through the same entry points reproduces the exact callback
          sequence the live tool saw.  [Sk_rate] records an effective
          sampling-rate change at the launch it first applies to; the
          implicit initial rate is 1.0, so fixed rate-1.0 runs record no
          such op and their op streams are unchanged. *)

type t

val create :
  ?range:Range.t ->
  ?buffer_capacity:int ->
  ?overflow_policy:Config.overflow ->
  ?label:string ->
  device:int ->
  unit ->
  t
(** [buffer_capacity] and [overflow_policy] default to the
    {!Config.buffer_capacity} / {!Config.overflow_policy} knobs.
    [label] names the vendor backend feeding this processor in a
    mixed-backend session; when set, every metric series additionally
    carries a [("backend", label)] label. *)

val set_tool : t -> Tool.t -> unit
(** Installs the tool behind a fresh circuit breaker configured from the
    guard knobs. *)

val clear_tool : t -> unit
val tool : t -> Tool.t option
val guard : t -> Guard.t option
(** The active tool's circuit breaker, for health inspection. *)

val objmap : t -> Objmap.t
val range : t -> Range.t

val device : t -> int
(** The device id this processor stamps on dispatched events. *)

val metrics : t -> Pasta_util.Metric.t
(** The processor's metric registry — the single source of truth for every
    pipeline counter, exportable via {!Telemetry.prometheus}.  Every series
    carries a [("device", "<id>")] label ({!metric_labels}), so fleet-wide
    expositions keep per-device resolution.  Capture and replay resolve
    their counter handles from it at attach time (find-or-create by name
    and device labels), so the names below are part of the stable surface:
    [pasta_events_recorded], [pasta_bytes_written], [pasta_trace_chunks],
    [pasta_trace_chunks_skipped], [pasta_replay_events]. *)

val sync_objmap_metrics : t -> unit
(** Copy the {!objmap}'s resolve-memo tallies ({!Objmap.memo_stats}) into
    the [pasta_objmap_memo_hits] / [pasta_objmap_memo_misses] series.  The
    objmap keeps its own counts on the resolve path, so the series hold
    the tallies as of the last call. *)

val metric_labels : t -> (string * string) list
(** The label set every series in {!metrics} carries:
    [[("device", string_of_int (device t))]], preceded by
    [("backend", label)] when a backend label was set.  Lookups into the
    registry (capture, replay, tests) must pass these labels or they will
    find-or-create a parallel unlabeled series. *)

val backend_label : t -> string option
(** The mixed-backend session label passed at {!create}, if any. *)

val set_pool : t -> Pasta_util.Domain_pool.t -> unit
(** Install a domain pool for parallel kernel-end aggregation
    ([Gpu_parallel] mode).  Without one, batches aggregate inline — same
    results, serially. *)

val clear_pool : t -> unit

val set_sink : t -> (time_us:float -> sink_op -> unit) -> unit
(** Install a trace-capture tap.  At most one sink is active; the sink
    must not call back into the processor.  The processor runs it inside
    a capture telemetry span: one per submission, or per hand-off for
    {!submit_pieces}. *)

val clear_sink : t -> unit

val incidents : t -> Event.t list
(** Supervision incidents ({!Event.Tool_quarantined} so far) in emission
    order. *)

val buffer_capacity : t -> int
val overflow_policy : t -> Config.overflow

val submit : t -> time_us:float -> Event.payload -> unit
(** Feed one normalized event.  Registry updates happen regardless of the
    range filter; tool dispatch respects it, and runs the tool's
    [on_event] and the event's structured callback in one tool frame.  A kernel-end event first
    drains the bounded record buffer so every record of the finishing
    kernel reaches the tool before its [on_kernel_end]. *)

val submit_all : t -> time_us:float -> Event.payload list -> unit
(** Feed the events one vendor callback normalized to, in order, under
    one Dispatch span: each exactly as {!submit} would. *)

val submit_region :
  t -> Event.kernel_info -> base:int -> extent:int -> accesses:int -> written:bool -> unit
(** Accumulate a device-side region aggregate for the kernel currently
    executing (GPU-accelerated mode). *)

val flush_kernel_summary : t -> time_us:float -> Event.kernel_info -> unit
(** Resolve the accumulated regions to objects, aggregate per object, emit
    [Kernel_region] events and call the tool's [on_mem_summary]. *)

val submit_pieces : t -> Event.kernel_info -> Gpusim.Warp.pieces -> unit
(** Feed one hand-off of a kernel's stamped record pieces, in order,
    under one Dispatch span and (when in range) one Ring span.  This is
    the one way fine-grained records enter the processor: every record
    channel hands over its table this way, once per kernel at its exit,
    and replay hands over each run of recorded batch ops of one kernel.
    The processor keeps nothing of the table.  Raises [Invalid_argument]
    on an unstamped piece.  Each piece is handled as if submitted on its
    own at its stamp: tapped to the sink as its own [Sk_batch] op (a
    {!Gpusim.Warp.sub}; the whole hand-off is tapped, under one capture
    span, before any piece is pushed), it moves the processor's clock to
    its stamp, counts its records in [events_seen], and takes one slot of
    the bounded buffer, with the overflow policy's drop, peak and stall
    accounting in records — or, out of range, counts in
    [accesses_filtered].  Buffered pieces wait for the next kernel-end
    (or {!flush_records}).  A tool with [on_access_columns] then gets each
    piece as one batch (counted in [pasta_batches_delivered]); any other
    tool gets one [on_access] call per record, in order, read through a
    {!Gpusim.Warp.cursor} (a descriptor's records are stepped, never
    filled), each counted in [events_dispatched] (or [events_suppressed]
    while quarantined).  Consecutive pieces of one batch and kernel that
    continue each other are one seek, and while the breaker is closed
    their records run as one {!Guard.call_while_closed}.  No record
    reaches [on_event], and none reaches both callbacks.  Each drain of
    the buffer runs inside one tool frame ({!Guard.framed}). *)

val flush_parallel_summary : t -> time_us:float -> Event.kernel_info -> unit
(** Kernel-end reduction for [Gpu_parallel] tools: drain the finishing
    kernel's batches, reduce them into per-worker {!Devagg.accum}s (on the
    installed pool when present), merge once and dispatch one
    {!Event.Device_summary} plus the tool's [on_device_summary].  Buffered
    items belonging to other kernels are delivered normally.  The merged
    aggregate is also tapped to the sink (as an [Sk_event] carrying the
    {!Event.Device_summary} payload), so a trace stores each flush's
    result right after its marker and replay need not aggregate again. *)

val submit_device_summary :
  t -> time_us:float -> Event.kernel_info -> Devagg.summary -> unit
(** Feed an already-computed device aggregate: dispatch the
    {!Event.Device_summary} unified event and the tool's
    [on_device_summary], subject to range filtering.  Replay uses this to
    re-drive recorded aggregates byte-identically. *)

val flush_parallel_drop : t -> time_us:float -> Event.kernel_info -> unit
(** Replay-side counterpart of {!flush_parallel_summary}: drain the
    finishing kernel's buffered batches without aggregating them
    (delivering other kernels' buffered items normally).  The aggregate
    this flush produced live is recorded in the trace and re-driven via
    {!submit_device_summary}. *)

val flush_records : t -> unit
(** Drain the bounded record buffer to the tool now, the whole drain
    inside one tool frame. *)

val note_rate : t -> time_us:float -> grid_id:int -> float -> unit
(** Record that fine-grained generation runs at the given sampling rate
    from launch [grid_id] on.  Taps an {!sink_op.Sk_rate} op (so the rate
    schedule lands in captures and re-recording a replay reproduces it),
    updates the [pasta_sample_rate] gauge and stamps subsequent
    {!flush_parallel_summary} merges with the rate as
    {!Devagg.summary.est_rate}.  Callers emit it only when the effective
    rate changes; the implicit initial rate is 1.0. *)

val current_sample_rate : t -> float
(** The most recently noted effective sampling rate (1.0 initially). *)

val submit_profile :
  t -> time_us:float -> Event.kernel_info -> Gpusim.Kernel.profile -> unit
(** Feed a per-kernel behaviour profile (instruction-level mode);
    dispatched as a {!Event.Kernel_profile} unified event and to the
    tool's [on_kernel_profile] when in range. *)

val annot_start : t -> time_us:float -> string -> unit
val annot_end : t -> time_us:float -> string -> unit
(** Range annotations, also forwarded as [Annotation] events stamped with
    the simulated time at which they happened. *)
