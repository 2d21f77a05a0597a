(** Tool sandboxing: a per-session circuit breaker around every {!Tool.t}
    callback.

    PASTA's contract is that attaching a profiler must never take the
    workload down.  A tool is user code, though, and any of its callbacks
    can raise.  The guard catches every exception, counts it per callback,
    and — once a failure threshold is crossed — {e quarantines} the tool:
    callbacks become no-ops and the workload proceeds unobserved.  After a
    cooldown measured in kernels the breaker goes {e half-open}: the next
    callback runs as a probe, and on success the tool is reinstated with a
    fresh failure budget.

    The guard never raises and never lets a tool exception escape.

    The breaker is domain-safe.  A callback on a closed breaker takes no
    lock: it reads an atomic mirror of the closed state and runs.  Every
    state transition (trip, half-open probe, reinstatement) and every
    failure is still serialized by an internal mutex, so concurrent callers
    (fleet shards, tests racing quarantine against half-open probes)
    observe a linearizable state machine — at most one half-open probe is
    in flight, and a burst of concurrent failures trips the breaker exactly
    once.  Tool callbacks and the [on_trip]/[on_failure] hooks always run
    outside the lock. *)

type callback =
  | On_event
  | On_kernel_begin
  | On_kernel_end
  | On_mem_summary
  | On_device_summary
  | On_access
  | On_access_columns
  | On_kernel_profile
  | On_operator
  | On_tensor
  | Report

val callback_name : callback -> string

type state = Closed | Quarantined | Half_open

val state_name : state -> string

type t

val create :
  ?threshold:int ->
  ?cooldown_kernels:int ->
  ?on_failure:(callback -> unit) ->
  on_trip:(failures:int -> unit) ->
  Tool.t ->
  t
(** [threshold] and [cooldown_kernels] default to the
    {!Config.guard_threshold} / {!Config.guard_cooldown_kernels} knobs.
    [on_failure] fires on every caught exception (lets the processor
    mirror counts into its stats); [on_trip] fires exactly once per
    quarantine, after the state flip. *)

val tool : t -> Tool.t
val state : t -> state

val note_kernel : t -> unit
(** Advance the cooldown clock; call once per kernel launch observed. *)

val call : t -> callback -> (Tool.t -> unit) -> unit
(** Run one callback under the breaker, in its own tool frame: [call g cb
    f] runs [f (tool g)] as {!call_in_frame} would, inside {!framed}. *)

val framed : t -> (unit -> 'a) -> 'a
(** [framed g body] runs [body] inside one telemetry frame of [g]'s tool
    ({!Telemetry.begin_tool}/{!Telemetry.end_tool}): the wall time of
    [body], raising or not, is charged to the tool.  A site that runs
    many callbacks in a row — the per-record delivery of a drained
    record buffer — opens one frame around all of them, so the clock is
    read twice per frame rather than twice per callback. *)

val call_in_frame : t -> callback -> (Tool.t -> 'a -> 'b -> unit) -> 'a -> 'b -> unit
(** [call_in_frame g cb f a b] runs [f (tool g) a b] under the breaker,
    with no clock read; call it inside {!framed}.  The callback takes its
    arguments from the call, so an [f] with no free variables is a
    static closure and a per-record call site allocates nothing for it.
    Quarantined: no-op (counted as suppressed).  Cooldown elapsed: the
    call is the half-open probe.  A callback that runs is counted with
    {!Telemetry.count_calls}; its exception is caught and counted, never
    re-raised. *)

val call_while_closed :
  t -> callback -> (Tool.t -> 'a -> 'b -> unit) -> 'a -> 'b -> int -> int
(** [call_while_closed g cb f a b n] runs [f (tool g) a b] up to [n]
    times, inside the caller's frame, for as long as the breaker stays
    closed, and returns how many calls ran.  It is {!call_in_frame}'s
    closed case, repeated: the loop sits inside one exception trap; a
    call that raises is counted and may trip the breaker exactly as
    there, and the loop resumes with the next call under a new trap.
    All the calls that ran, raising ones included, are counted with one
    {!Telemetry.count_calls}.  It returns 0 at once on a breaker that is
    not closed, whose calls go through {!call_in_frame} one by one. *)

val guarded_report : t -> Format.formatter -> unit
(** The tool's report, exception-safe; always attempted (quarantine only
    silences the event-path callbacks, not end-of-run reporting).  It
    runs in a {!Telemetry.Report} span, so its wall time lands on the
    attribution's ["report (tool output)"] row rather than the tool's;
    the call still counts toward the tool's row. *)

(** {2 Accounting} *)

val total_failures : t -> int
val failures_by_callback : t -> (string * int) list
(** Callbacks with a non-zero failure count, stable order. *)

val quarantine_count : t -> int
val reinstated_count : t -> int
val suppressed_count : t -> int
(** Callback invocations skipped while quarantined. *)
