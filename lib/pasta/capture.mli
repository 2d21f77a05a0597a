(** Trace capture: stream a live session's submission-level op stream to
    a [.ptrace] file.

    A capture installs itself as the processor's sink, so it observes
    every submission — coarse events, packed access batches, region
    aggregates, kernel-end flush points — in arrival order, before range
    filtering and buffering.  Memory stays bounded: ops are encoded into
    a chunk buffer that is flushed to disk whenever it reaches the chunk
    size ({!Config.trace_chunk_bytes} by default).

    The capture keeps the processor's [events_recorded],
    [bytes_written] and [chunks] stats current, so session health
    reports cover it. *)

type t

val start : ?chunk_bytes:int -> ?meta:string -> Processor.t -> string -> t
(** [start proc path] opens [path] and taps [proc].  At most one sink
    per processor: starting a capture replaces any existing sink. *)

val finish : t -> unit
(** Detach the sink, flush the final chunk and close the file.
    Idempotent. *)

(** {2 Mixed-backend capture}

    One [.ptrace] file recording several backend processors at once:
    each processor gets its own sink stamping its backend id on every
    op, the header carries the backend table, and the writer keeps every
    chunk single-backend so one backend's corruption never costs
    another's ops. *)

type multi

val start_multi :
  ?chunk_bytes:int ->
  ?meta:string ->
  (int * Processor.t) list ->
  string ->
  multi
(** [start_multi [(id, proc); ...] path] opens [path] with a backend
    table built from each processor's device and backend label, and taps
    every processor.  Ids must be distinct; raises [Invalid_argument] on
    an empty list.  Each processor's recorded/bytes/chunks stats stay
    current (bytes and chunks report the shared file). *)

val finish_multi : multi -> unit
(** Detach every sink, flush and close the shared file.  Idempotent. *)

val passthrough : unit -> Tool.t
(** A record-only tool: requests [Cpu_sanitizer] instrumentation, takes
    its records as batches ([on_access_columns]) and does nothing with
    them, so [accelprof record] can capture a fine-grained trace without
    running an analysis. *)
