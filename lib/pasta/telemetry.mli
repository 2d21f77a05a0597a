(** Framework self-observability: spans, self-time attribution, metrics and
    exporters — PASTA measuring PASTA (the paper's low-overhead claim made
    checkable on our own pipeline).

    The span layer is a stack discipline per domain: every wall-clock
    interval between two instrumentation points is charged to whichever
    span was on top while it elapsed (the empty stack charges to the
    simulate/workload root).  Per-layer and per-tool self times therefore
    sum {e exactly} to the wall time of the measurement window.

    Levels ([ACCEL_PROF_TELEMETRY]):
    - [Off] — every instrumentation point is a single int load.
    - [Basic] (default) — self-time attribution only: two clock reads and a
      few field writes per span or tool frame, no allocation.  Tool
      callbacks inside a frame are counted ({!count_calls}), not timed, so a
      per-record delivery site that opens one frame per batch reads the
      clock twice per frame, not per callback.
    - [Full] — additionally records finished spans into a bounded cyclic
      store, feeds per-tool frame-latency histograms
      ([pasta_tool_callback_us] observes one sample per tool frame) and
      samples ring-buffer occupancy, for Chrome-trace / Prometheus
      export.

    Unbalanced begin/end pairs are counted ({!mismatches}), never raised:
    instrumentation must not be able to take the pipeline down. *)

type level = Off | Basic | Full

val level : unit -> level

val refresh_level : unit -> unit
(** Re-read {!Config.telemetry} (sessions call this on attach). *)

val enabled : unit -> bool

(** Pipeline layers a span can belong to.  [Simulate] is the root and never
    pushed explicitly. *)
type cat =
  | Simulate
  | Handler
  | Dispatch
  | Ring
  | Devagg
  | Capture_io
  | Replay_io
  | Export
  | Fleet
  | Report  (** a tool's end-of-run report ({!Guard.guarded_report}) *)

val begin_span : cat -> string -> unit
(** [begin_span cat name]: push a span.  [name] only matters in [Full] mode
    (it labels the exported trace event); pass a static string so the basic
    path stays allocation-free. *)

val end_span : cat -> unit

(** {2 Tool frames}

    Per-tool attribution uses preregistered slots so the per-callback path
    does no hashing; {!Guard} holds its tool's slot and runs every
    callback inside a tool frame ({!Guard.framed}), which is what
    attributes quarantine-provoking (raising) callbacks to the tool that
    caused them.  A frame may hold many callbacks; each one that runs is
    counted with {!count_calls}. *)

type tool_slot

val tool_slot : string -> tool_slot
(** Find-or-create the slot for a tool name. *)

val begin_tool : tool_slot -> unit
val end_tool : tool_slot -> unit
(** Open / close a tool frame: the wall time in between (less nested
    spans) is the tool's self time. *)

val count_calls : tool_slot -> int -> unit
(** [count_calls slot n] counts [n] guarded callback runs for the tool
    (no clock read).  This, not the number of frames, is the tool row's
    {!row.row_count} and the [pasta_tool_calls] counter. *)

val note_sim_us : float -> unit
(** Mirror of the simulated clock, stamped onto spans; fed by the
    {!Gpusim.Clock} observer a session installs (replay feeds recorded
    timestamps instead). *)

val set_device : int -> unit
(** Device id the calling domain's spans are attributed to ([-1] none).
    Sessions set it on attach and clear it on detach; fleet shards set it
    per attempt.  Every span recorded afterwards carries the id
    ([Span_buf.sp_dev], the ["device"] arg of exported trace events). *)

val current_device : unit -> int

val sample_ring_occupancy : int -> unit
(** Record the bounded record-buffer occupancy for the exported counter
    track ([Full] mode only; a no-op otherwise). *)

val reset : unit -> unit
(** Start a fresh measurement window: zero attribution state, tool slots,
    the telemetry registry, the span store and occupancy samples. *)

(** {2 Overhead attribution} *)

type row = {
  row_label : string;  (** layer description or ["tool:<name>"] *)
  row_self_us : float;
  row_count : int;
      (** completed spans (layer), or guarded callbacks run (tool) — one
          per callback counted by {!count_calls}, however many tool
          frames enclosed them *)
  row_minor_words : float;
      (** Gc minor words allocated while this row was the innermost open
          span — attributed under the same stack discipline as self time.
          Sampled only at level [Full] (the counter read costs time and
          allocates, which Basic cannot afford on per-record spans);
          reads 0 at [Basic]. *)
  row_major_words : float;  (** Gc major (heap) words, same discipline. *)
}

type attribution = { at_total_us : float; at_rows : row list }

val overhead_snapshot : unit -> float * float
(** [(window_total_us, overhead_us)] for the calling domain: the wall time
    of the measurement window so far and the part of it {e not} charged to
    the simulate/workload root — the framework's cumulative self time.
    The sampling governor ({!Sampler}) diffs successive snapshots for its
    per-kernel feedback.  [(0., 0.)] at level [Off], where nothing is
    attributed (governors must detect that case via {!level}, not infer it
    from zeros). *)

val attribution : unit -> attribution
(** Snapshot for the calling domain (the coordinator; it blocks while the
    pool maps, so worker time lands in the devagg row).  The rows' self
    times sum exactly to [at_total_us] minus only the simulate row when the
    stack discipline was respected — in practice: rows including the
    simulate root sum to the total by construction. *)

val pp_attribution : Format.formatter -> attribution -> unit

(** {2 Exporters} *)

val chrome_events : unit -> string list
(** Rendered Chrome trace-event JSON objects: one ["X"] event per stored
    span (wall-clock timeline, pid 1000, with [sim_t0_us]/[sim_t1_us]
    args bridging to the simulated timeline) plus a ["C"] counter track of
    ring-buffer occupancy.  Splice into {!Trace_export.to_json}'s [extra]
    for a combined workload + telemetry trace. *)

val write_chrome_trace : string -> unit
(** Standalone [{"traceEvents":[...]}] file from {!chrome_events}. *)

val prometheus : ?extra:Pasta_util.Metric.t list -> unit -> string
(** Text exposition of [extra @ [registry ()]] (pass a processor's registry
    to include pipeline counters), after folding attribution state into
    gauges. *)

val write_prometheus : ?extra:Pasta_util.Metric.t list -> string -> unit

(** {2 Introspection (tests)} *)

val depth : unit -> int
(** Current nesting depth of the calling domain's span stack. *)

val mismatches : unit -> int
val spans_recorded : unit -> int
val span_buffer : unit -> Pasta_util.Span_buf.t
