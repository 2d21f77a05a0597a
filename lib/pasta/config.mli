(** Configuration knobs, settable programmatically or through the
    environment variables the paper's artifact uses
    ([PASTA_TOOL], [START_GRID_ID], [END_GRID_ID],
    [ACCEL_PROF_ENV_SAMPLE_RATE]).  Programmatic overrides win over the
    environment; [clear_overrides] restores environment-only behaviour. *)

val set : string -> string -> unit
val unset : string -> unit
val clear_overrides : unit -> unit

val with_overlay : (string * string) list -> (unit -> 'a) -> 'a
(** [with_overlay kvs f] runs [f] with [kvs] as the calling {e thread}'s
    innermost knob overlay: inside [f], {!get} resolves each key against
    the thread's overlay stack (innermost first) before the process-global
    overrides and the environment.  This is the tenant-isolation
    primitive of the serve path — a session attached inside the overlay
    snapshots its tenant's settings, and concurrent sessions on other
    threads never observe them.  Nests; always popped, even on
    exception. *)

val snapshot : unit -> (string * string) list
(** The effective value of every session-scoped knob
    ({!session_knob_keys}) as the calling thread resolves them right now —
    overlay, then global override, then environment.  Capturing a
    snapshot and re-installing it via {!with_overlay} on another thread
    reproduces the same session configuration there. *)

val session_knob_keys : string list
(** The knob keys that are per-session (safe to vary per tenant).
    Process-global knobs — [ACCEL_PROF_TELEMETRY] (one span layer per
    process) and [ACCEL_PROF_DOMAINS] (one shared pool) — are excluded by
    design. *)

val get : string -> string option
val get_int : string -> int option
(** [None] when the variable is absent or not an integer. *)

val tool_name : unit -> string option
(** [PASTA_TOOL]. *)

val start_grid_id : unit -> int option
val end_grid_id : unit -> int option
(** [START_GRID_ID] / [END_GRID_ID]: the launches the range filter lets
    through.  [None] when unset or empty; a value that is not a positive
    integer raises [Invalid_argument] naming the knob and the value. *)

val sample_cap : unit -> int option
(** [ACCEL_PROF_ENV_SAMPLE_RATE]: per-region cap on materialized records
    (the paper artifact's integer knob — a cap, not a probability).
    [None] when unset or empty; any value that is not a positive integer
    raises [Invalid_argument] naming the knob and the value. *)

(** {2 Adaptive sampling knobs} *)

val sampling_rate : unit -> float option
(** [ACCEL_PROF_SAMPLE_RATE]: fixed fraction of materialized records to
    keep, in (0, 1].  [None] when unset or invalid; surviving records
    carry inverse-probability weights so weighted statistics stay
    unbiased. *)

val parse_budget : string -> float option
(** Parse an overhead budget: ["5%"] and ["0.05"] both mean 5% of
    workload time.  [None] outside (0, 1] or on malformed input. *)

val overhead_budget : unit -> float option
(** [ACCEL_PROF_OVERHEAD_BUDGET]: target ceiling for analysis overhead as
    a fraction of workload time; enables the closed-loop sampling
    governor ({!Sampler}). *)

(** {2 Robustness knobs} *)

val guard_threshold : unit -> int
(** [ACCEL_PROF_GUARD_THRESHOLD]: tool-callback failures tolerated before
    quarantine (default 10, also when set to the empty string).  Any
    value that is not a positive integer raises [Invalid_argument]
    naming the knob and the value. *)

val guard_cooldown_kernels : unit -> int
(** [ACCEL_PROF_GUARD_COOLDOWN_KERNELS]: kernels a quarantined tool sits
    out before a half-open probe (default 25, also when set to the empty
    string).  Any value that is not a positive integer raises
    [Invalid_argument] naming the knob and the value. *)

val buffer_capacity : unit -> int
(** [ACCEL_PROF_BUFFER_CAP]: bounded record-buffer capacity in items, one
    piece of a channel's hand-off (a packed batch, or the part of one
    between two flushes) being one item (default 4096, also when set to
    the empty string).  Any value that is not a positive integer raises
    [Invalid_argument] naming the knob and the value. *)

type overflow = Drop_oldest | Drop_newest | Block
(** What the bounded record buffer does when a producer outruns it:
    evict the oldest item, reject the incoming one, or stall the
    producer until the consumer drains ([Block] is lossless). *)

val overflow_to_string : overflow -> string

val overflow_policy : unit -> overflow
(** [ACCEL_PROF_OVERFLOW_POLICY]: drop-oldest | drop-newest | block
    (default block, which is lossless; also when set to the empty
    string).  A value outside that set and its aliases ([drop_oldest],
    [oldest], [drop_newest], [newest], [stall], in any case) raises
    [Invalid_argument] naming the knob, the value and the accepted
    spellings: a misspelled policy must not silently run as [block]. *)

val watchdog_us : unit -> float
(** [ACCEL_PROF_WATCHDOG_US]: kernel duration above which the session
    watchdog flags a stuck kernel (default 1e6 us, also when the value is
    empty).  A value that is not a positive finite number raises
    [Invalid_argument] naming the knob and the value. *)

val domains : unit -> int
(** [ACCEL_PROF_DOMAINS]: domain-pool size for parallel device-side
    preprocessing.  Defaults to [Domain.recommended_domain_count ()]
    capped at 8 (also when the value is empty); explicit values are
    honoured up to 64, and larger ones clamp to 64.  Size 1 means fully
    serial (no domains spawned).  A value that is not a positive integer
    raises [Invalid_argument] naming the knob and the value. *)

val regions : unit -> Gpusim.Instrpass.granularity
(** [ACCEL_PROF_REGIONS]: intra-kernel region instrumentation level.
    [off]/[0]/[false]/[no] (the default, also when unset or empty) inserts
    no probes and keeps runs byte-identical to an uninstrumented session;
    [coarse]/[on]/[1]/[true]/[yes] probes prologue, body and epilogue;
    [fine]/[full]/[2] additionally splits the body per memory region,
    shared-memory block and barrier ({!Gpusim.Instrpass}).  Any other
    value raises [Invalid_argument] naming the knob, the value and the
    accepted spellings. *)

val validate : unit -> (unit, string) result
(** Parse every knob that refuses bad values ({!start_grid_id},
    {!end_grid_id}, {!sample_cap},
    {!guard_threshold}, {!guard_cooldown_kernels}, {!buffer_capacity},
    {!overflow_policy}, {!watchdog_us}, {!domains}, {!regions},
    {!trace_chunk_bytes} and the serve daemon's three) as the calling
    thread resolves them.  [Error] carries
    the refusal's message.  The CLI calls it before doing any work; the
    serve daemon calls it inside a job's overlay at submit time. *)

val inject_faults : unit -> bool
(** [ACCEL_PROF_INJECT_FAULTS]: enable deterministic fault injection for
    sessions that don't install their own injector. *)

val fault_seed : unit -> int64
(** [ACCEL_PROF_FAULT_SEED]: seed for injected faults (default 0x5EED). *)

(** {2 Fleet profiling knobs}

    Defaults are usable without any environment, like the robustness
    knobs: fleet orchestration must configure itself even on a bare
    machine. *)

val fleet_fanout : unit -> int
(** [ACCEL_PROF_FLEET_FANOUT]: children per merge node of the fleet
    reduction tree (default 8, minimum 2). *)

val fleet_deadline_us : unit -> float
(** [ACCEL_PROF_FLEET_DEADLINE_US]: simulated per-device wall budget; a
    device attempt finishing past it retries, and the final attempt's
    late summary is delivered [Stale] (default 5e6 us). *)

val fleet_retries : unit -> int
(** [ACCEL_PROF_FLEET_RETRIES]: attempts after the first before a device
    is declared missing (default 2). *)

val fleet_backoff_us : unit -> float
(** [ACCEL_PROF_FLEET_BACKOFF_US]: base of the exponential retry backoff,
    jittered deterministically per (device, attempt) (default 1e4 us). *)

val strict_fleet : unit -> bool
(** [ACCEL_PROF_STRICT_FLEET]: promote missing devices from a degraded
    partial report to a hard run failure (default off). *)

(** {2 Self-telemetry knobs} *)

val telemetry : unit -> [ `Off | `Basic | `Full ]
(** [ACCEL_PROF_TELEMETRY]: the framework's self-observability level.
    [off] disables the span layer entirely, [basic] (the default) keeps
    allocation-free self-time attribution on, [full] additionally records
    individual spans, tool latency histograms and ring-occupancy samples
    for export. *)

val telemetry_spans : unit -> int
(** [ACCEL_PROF_TELEMETRY_SPANS]: capacity of the cyclic span store used
    in [full] mode (default 65536); the newest spans win. *)

(** {2 Trace capture / replay knobs} *)

val trace_path : unit -> string option
(** [ACCEL_PROF_TRACE]: when set, every attached session also streams its
    unified event stream to this [.ptrace] file. *)

val trace_chunk_bytes : unit -> int
(** [ACCEL_PROF_TRACE_CHUNK_KB]: capture chunk size in KiB (default 256,
    also when set to the empty string).  Each chunk is independently
    framed and CRC-protected; smaller chunks bound capture memory tighter
    and lose less to a corrupt chunk, larger chunks compress the framing
    overhead.  Anything but an integer from 1 to 65536 (64 MiB, the
    chunk buffer a capture allocates up front) raises [Invalid_argument]
    naming the knob and the value. *)

val trace_strict : unit -> bool
(** [ACCEL_PROF_TRACE_STRICT]: replay verification mode.  Strict (the
    default) fails on any CRC or framing violation; [0]/[off]/[tolerant]
    skips corrupt chunks and keeps going. *)

(** {2 Serve daemon knobs}

    Positive integers; the empty string counts as unset, and anything
    else raises [Invalid_argument] naming the knob and the value. *)

val serve_capacity : unit -> int
(** [ACCEL_PROF_SERVE_CAPACITY]: jobs the daemon's queue holds across all
    tenants (default 64). *)

val serve_quota : unit -> int
(** [ACCEL_PROF_SERVE_QUOTA]: jobs any one tenant may have queued
    (default 16). *)

val serve_workers : unit -> int
(** [ACCEL_PROF_SERVE_WORKERS]: executor threads (default 4). *)
