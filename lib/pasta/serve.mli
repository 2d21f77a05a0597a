(** [accelprof serve]: a long-running multi-tenant profiling service.

    The daemon accepts profile jobs over a local socket (newline-delimited
    JSON), multiplexes many tenant sessions onto the process's shared
    domain pool, and streams results back: a Prometheus scrape endpoint
    serves the live server registry (every series carries a [tenant]
    label, so scrapes are namespaced per tenant), and per-job [.ptrace]
    captures flush incrementally while the job runs.

    Scheduling is tenant-fair ({!Pasta_util.Jobq}): admission control is
    two-level (bounded global queue plus a per-tenant quota — the CLI's
    429), dequeue is round-robin across tenants, and each job runs in its
    own {!Session} on a fresh simulated device under a thread-scoped
    {!Config.with_overlay} of the tenant's knobs, so tenants cannot
    observe each other's configuration, call stacks or faults.  When the
    server has an overhead budget, every job receives a fair
    {!Sampler.fleet_slice} of it.

    Jobs can be cancelled and carry an optional deadline in simulated
    microseconds; both are enforced at kernel-launch boundaries by a
    device probe, so an abort never tears a launch in half. *)

(** {1 Wire protocol}

    One JSON object per line in both directions.  Requests carry an ["op"]
    field; responses always carry ["ok"] and, on failure, ["error"] plus a
    numeric ["code"] from {!Exit_code}. *)

module Proto : sig
  type submit = {
    tenant : string;
    model : string;  (** Table IV abbreviation, e.g. ["AN"] *)
    tool : string option;  (** registry key; [None] defers to a [PASTA_TOOL] knob *)
    train : bool;  (** train instead of inference *)
    iters : int option;  (** [None] = the model's default iteration count *)
    gpu : string;  (** ["a100"] | ["rtx3060"] | ["mi300x"] | ["tpu_v4"] *)
    knobs : (string * string) list;
        (** session-scoped config overrides; keys must be members of
            {!Config.session_knob_keys} *)
    deadline_us : float option;  (** simulated-time budget for the job *)
    trace : string option;  (** capture the job's op stream to this [.ptrace] *)
  }

  type request =
    | Submit of submit
    | Status of int
    | Cancel of int
    | Result of int
    | Health
    | Shutdown

  val request_to_json : request -> Pasta_util.Njson.t
  val request_of_json : Pasta_util.Njson.t -> (request, string) Stdlib.result
  (** Total inverse of {!request_to_json} (property-tested, also over
      mutated request lines); unknown ["op"]s, missing fields, and
      optional fields that are present but ill-typed or out of range
      yield [Error]. *)
end

(** {1 Job lifecycle} *)

type summary = {
  tool_name : string;
  kernels : int;
  events_seen : int;
  events_dispatched : int;
  elapsed_us : float;  (** simulated device time *)
  quarantines : int;
  records_dropped : int;
  report : string;  (** the tool's rendered report *)
  counters : (string * (string * string) list * int) list;
      (** the job session's counter samples — the deterministic facts a
          tenant's solo run must reproduce byte-for-byte *)
}

type outcome =
  | Completed of summary
  | Failed of string
  | Cancelled
  | Deadline_exceeded

val outcome_name : outcome -> string
(** ["completed" | "failed" | "cancelled" | "deadline"]. *)

type state = Queued | Running | Done of outcome

(** {1 Server} *)

type t

val create :
  ?capacity:int -> ?quota:int -> ?workers:int -> ?budget:float -> unit -> t
(** [capacity]/[quota] bound the job queue (defaults
    {!Config.serve_capacity} / {!Config.serve_quota}); [workers] executor
    threads (default {!Config.serve_workers}) are spawned immediately.
    Raises [Invalid_argument] when a knob it reads holds a bad value.
    [budget] is a total overhead-budget fraction sliced fairly across
    active tenants via {!Sampler.fleet_slice}. *)

val submit : t -> Proto.submit -> (int, string) Stdlib.result
(** Validate and enqueue; returns the job id.  Validation refuses bad
    fields and knobs, an unknown tool, and a tool that the default
    backend for the job's GPU refuses ({!Backend.refusal}), so such a job
    is never queued.  [Error] carries a human-readable reason — admission
    rejects ([Queue_full] / [Tenant_quota]) are prefixed ["rejected:"]
    and counted in the [accelprof_serve_jobs_rejected_total] metric. *)

val status : t -> int -> (string * state) option
(** [(tenant, state)], or [None] for an unknown id. *)

val cancel : t -> int -> [ `Cancelled | `Cancel_requested | `Too_late | `Unknown ]
(** A queued job is removed immediately ([`Cancelled]); a running job gets
    its flag set and aborts at the next kernel boundary
    ([`Cancel_requested]); finished jobs are [`Too_late]. *)

val result : t -> int -> outcome option
(** [None] while the job is still queued or running. *)

val wait : ?timeout_s:float -> t -> int -> outcome option
(** Block until the job finishes (default timeout 60 s of wall time). *)

val shutdown : t -> unit
(** Close the queue, let queued jobs drain as [Cancelled], join the
    executor threads and stop any listener.  Idempotent. *)

val join : t -> unit
(** Block until a {!shutdown} has finished: the executor threads and the
    acceptor have exited and a unix socket file is unlinked — the daemon
    main loop of [accelprof serve]. *)

(** {1 Socket endpoint} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> addr
(** ["host:port"] parses as TCP; anything else is a unix-socket path. *)

val addr_to_string : addr -> string

val listen : t -> addr -> unit
(** Bind and start the accept loop on a background thread.  NDJSON
    clients get one response line per request line; an HTTP [GET
    /metrics] on the same port answers with the Prometheus exposition and
    closes.  Raises [Unix.Unix_error] when the bind fails (the CLI maps
    that to {!Exit_code.unavailable}). *)

(** {1 Client} *)

module Client : sig
  type conn

  val connect : addr -> conn
  (** Raises [Unix.Unix_error] when the daemon is unreachable. *)

  val close : conn -> unit

  val request : conn -> Proto.request -> Pasta_util.Njson.t

  val scrape_http : addr -> string
  (** One-shot HTTP [GET /metrics]; returns the body. *)
end

val self_test : ?addr:addr -> unit -> (unit, string) Stdlib.result
(** Boot a daemon on a private socket, submit a job through the socket
    client, wait for it, scrape [/metrics] over HTTP, and shut down —
    the CI smoke test.  The caller must have registered the
    ["kernel_freq"] tool (the CLI's [Pasta_tools.Tools.register_all]). *)
