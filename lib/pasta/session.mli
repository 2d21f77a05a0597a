(** A profiling session: the [LD_PRELOAD] injection equivalent.

    Attaching a session wires the whole PASTA stack onto one or several
    devices, one vendor backend each (e.g. a CUDA sanitizer, an OpenCL
    platform and a TPU xprof at once): the vendor backend for low-level
    events, the DL-framework hooks for high-level events, an event
    processor in between, and a tool — plus whatever fine-grained
    instrumentation the tool's analysis model requires.  Each backend
    keeps its own device identity and clock domain; events interleave
    deterministically in workload program order.  Detaching tears it all
    down and returns each backend's accounting.  A solo session is the
    one-backend case of the same code path.

    The session is also the supervision root: the tool runs behind a
    {!Guard} circuit breaker, fine-grained records flow through a bounded
    buffer, a watchdog probe flags stuck kernels, and (when enabled)
    deterministic fault injection exercises all of it.  {!result.health}
    reports what happened.

    {!start} / {!end_} implement the [pasta.start()] / [pasta.end()]
    Python annotations (paper Listing 1) against the innermost active
    session. *)

type t

type health = {
  guard_state : string;  (** "closed" | "quarantined" | "half-open" *)
  tool_failures : int;  (** tool-callback exceptions caught *)
  failures_by_callback : (string * int) list;
  quarantines : int;  (** times the breaker tripped *)
  reinstated : int;  (** successful half-open probes *)
  events_suppressed : int;  (** events withheld during quarantine *)
  records_dropped : int;  (** bounded-buffer overflow losses *)
  records_buffered_peak : int;
  accesses_filtered : int;
      (** records seen but withheld by the range filter; with drops and
          deliveries this makes the event accounting add up *)
  batches_delivered : int;  (** packed batches handed to a batch-aware tool *)
  domains : int;  (** preprocessing domain-pool size in effect (1 = serial) *)
  buffer_capacity : int;
  overflow_policy : string;
  buffer_stalls : int;  (** producer stalls under the Block policy *)
  watchdog_trips : (string * float) list;
      (** kernels whose duration exceeded [ACCEL_PROF_WATCHDOG_US] *)
  fault_stats : Gpusim.Faults.stats option;
      (** what the injector actually did, when fault injection was on *)
  incidents : Event.t list;  (** [Tool_quarantined] events, in order *)
  events_recorded : int;  (** submission ops written by the trace capture *)
  bytes_written : int;  (** [.ptrace] bytes produced *)
  chunks : int;  (** trace chunks written (capture) or read (replay) *)
  chunks_skipped : int;  (** corrupt chunks a tolerant replay skipped *)
  replay_events : int;  (** ops re-driven from a recorded trace *)
  sampling : Sampler.snapshot option;
      (** governor state when adaptive/fixed-rate sampling was active *)
}

val pp_health : Format.formatter -> health -> unit

type result = {
  tool_name : string;
  phases : Vendor.Phases.t;  (** profiling-time phase breakdown (Fig. 10) *)
  events_seen : int;
  events_dispatched : int;
  kernels : int;
  elapsed_us : float;  (** simulated device time spent while attached *)
  health : health;  (** supervision-layer accounting *)
  metrics : Pasta_util.Metric.t;
      (** the processor's metric registry — every [health] counter in
          exportable form; pass to {!Telemetry.prometheus} via [extra] *)
  report : Format.formatter -> unit;  (** the tool's report, exception-safe *)
}

type multi_result = {
  mr_backends : (string * result) list;
      (** per-backend results in attach order, keyed by backend label
          (empty for a single backend) *)
  mr_report : Format.formatter -> unit;
      (** one backend: its report as is; several: every report under a
          [=== backend <label> ===] heading *)
}

val attach_multi :
  ?range:Range.t ->
  ?sample_cap:int ->
  ?sample_rate:float ->
  ?overhead_budget:float ->
  ?faults:Gpusim.Faults.t ->
  ?capture:string ->
  ?capture_meta:string ->
  tool:(Backend.kind -> Gpusim.Device.t -> Tool.t) ->
  (Backend.kind * Gpusim.Device.t) list ->
  t
(** [attach_multi ~tool specs] attaches one backend per [(kind, device)]
    pair, each with a tool instance of its own from [tool] (tools are
    stateful).  Backend ids are list positions.  Attaching reads the
    knobs that can refuse, creates the processors, starts the capture
    over all of them, then attaches each backend: a refused knob leaves
    every device untouched, and the first event is already on tape.

    The count rule picks the layout.  One backend is a solo session:
    unlabelled, an empty backend table and backend id 0 in its capture, a
    report without a heading.  With two or more, each processor is
    labelled with its backend kind (suffixed with its position when a
    kind repeats), so every metric series carries [("backend", label)];
    the capture gets a backend table; each report gets a heading.

    [sample_cap] caps materialized records per kernel region (default:
    [ACCEL_PROF_ENV_SAMPLE_RATE]).  [sample_rate] pins a fixed record
    sampling rate in (0, 1]; [overhead_budget] enables the adaptive
    {!Sampler} governor instead (defaults: the [ACCEL_PROF_SAMPLE_RATE] /
    [ACCEL_PROF_OVERHEAD_BUDGET] knobs; with both, the budget governs and
    the rate is the telemetry-blind fallback).  Rate changes are recorded
    in the capture before the launch they apply to.  [faults] installs
    the given injector on every device; without it, the
    [ACCEL_PROF_INJECT_FAULTS] knob seeds one per device from
    [ACCEL_PROF_FAULT_SEED].  A device that already carries an injector
    is left untouched.

    [capture] (or the [ACCEL_PROF_TRACE] knob) streams the session's
    submission-level op stream to one [.ptrace] file ({!Capture}), closed
    at {!detach_multi}.  [capture_meta] is stored in its header (default:
    the tool's display name for one backend, the labels joined by [+] for
    several; the CLI passes the registry key so replay can re-resolve the
    tool).

    Devices must carry distinct ids ([Gpusim.Device.create ~id:...]): the
    framework hook bus filters on the id, metric series carry it, and the
    unified trace uses it as the track-group pid.  Raises
    [Invalid_argument] on an empty list, duplicate device ids, or a
    backend that refuses its device or its tool ({!Backend.refusal}), in
    each case before any processor, capture or backend exists. *)

val detach_multi : t -> multi_result

val run_multi :
  ?range:Range.t ->
  ?sample_cap:int ->
  ?sample_rate:float ->
  ?overhead_budget:float ->
  ?faults:Gpusim.Faults.t ->
  ?capture:string ->
  ?capture_meta:string ->
  tool:(Backend.kind -> Gpusim.Device.t -> Tool.t) ->
  (Backend.kind * Gpusim.Device.t) list ->
  (unit -> 'a) ->
  'a * multi_result
(** Attach all backends, run the workload, detach — even on
    exception. *)

(** {2 One backend}

    The short forms: a one-element {!attach_multi}. *)

val attach :
  ?backend:Backend.kind ->
  ?range:Range.t ->
  ?sample_cap:int ->
  ?sample_rate:float ->
  ?overhead_budget:float ->
  ?faults:Gpusim.Faults.t ->
  ?capture:string ->
  ?capture_meta:string ->
  tool:Tool.t ->
  Gpusim.Device.t ->
  t
(** [backend] defaults to {!Backend.default_kind_for} the device and the
    tool's fine-grained model. *)

val detach : t -> result
(** Raises [Invalid_argument] on a session over several backends. *)

val run :
  ?backend:Backend.kind ->
  ?range:Range.t ->
  ?sample_cap:int ->
  ?sample_rate:float ->
  ?overhead_budget:float ->
  ?faults:Gpusim.Faults.t ->
  ?capture:string ->
  ?capture_meta:string ->
  tool:Tool.t ->
  Gpusim.Device.t ->
  (unit -> 'a) ->
  'a * result
(** Attach, run the workload, detach — even on exception. *)

val processor : t -> Processor.t
(** The first backend's processor. *)

val start : ?label:string -> unit -> unit
(** [pasta.start()]: open an analysis range on the innermost active
    session; a no-op when no session is attached. *)

val end_ : ?label:string -> unit -> unit
(** [pasta.end()]. *)
