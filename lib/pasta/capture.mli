(** Trace capture: stream a live session's submission-level op stream to
    a [.ptrace] file.

    A capture installs itself as each processor's sink, so it observes
    every submission — coarse events, packed access batches, region
    aggregates, kernel-end flush points — in arrival order, before range
    filtering and buffering.  Memory stays bounded: ops are encoded into
    a chunk buffer that is flushed to disk whenever it reaches the chunk
    size ({!Config.trace_chunk_bytes} by default).

    One capture records one or several backend processors into one file.
    Backend ids are list positions.  A single processor writes a solo
    trace: an empty backend table and backend id 0 on every op.  Two or
    more write a backend table built from each processor's device and
    backend label, stamp each op with its processor's id, and keep every
    chunk single-backend, so one backend's corruption never costs
    another's ops.

    Each processor's [events_recorded], [bytes_written] and [chunks]
    counters stay current (bytes and chunks report the shared file), so
    session health reports cover the capture. *)

type t

val start : ?chunk_bytes:int -> ?meta:string -> Processor.t list -> string -> t
(** [start procs path] opens [path] and taps every processor in [procs].
    At most one sink per processor: starting a capture replaces any
    existing sink.  Raises [Invalid_argument] on an empty list. *)

val finish : t -> unit
(** Detach every sink, flush the final chunk and close the file.
    Idempotent. *)

val passthrough : unit -> Tool.t
(** A record-only tool: requests [Cpu_sanitizer] instrumentation, takes
    its records as batches ([on_access_columns]) and does nothing with
    them, so [accelprof record] can capture a fine-grained trace without
    running an analysis. *)
