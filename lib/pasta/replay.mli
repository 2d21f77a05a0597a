(** Deterministic trace replay: re-drive a recorded [.ptrace] op stream
    through fresh {!Processor}s and tools, offline.

    Because the trace records submissions, each processor rebuilds
    everything it computed live — object-registry state, range
    filtering, bounded buffering, region summaries — so each replayed
    tool sees the exact callback sequence of the original run and
    produces a byte-identical report, provided the pipeline knobs
    (buffer capacity, overflow policy, guard thresholds) match the
    recording run.  Kernel-end device aggregates are the exception: the
    trace stores each flush's merged {!Devagg.summary}, so replay
    re-drives the recorded aggregate instead of re-running the
    reduction — identical output (aggregation is deterministic for every
    domain count), a fraction of the wall time.

    Replay applies its own range filter: a trace recorded unfiltered can
    be re-analyzed over any sub-range. *)

type outcome = {
  header : Ptrace.header;
  ops_replayed : int;
  chunks : int;
  chunks_skipped : int;  (** corrupt chunks skipped (tolerant mode) *)
  elapsed_us : float;  (** last simulated timestamp in the trace *)
  backends : (Ptrace.backend_entry * Processor.t * (Format.formatter -> unit)) list;
      (** one (entry, processor, exception-safe report) per backend, in
          table order; a solo trace has one, with id 0 and no label *)
  report : Format.formatter -> unit;
      (** one backend: its report as is; several: every report under a
          [=== backend <label> ===] heading *)
}

val run_multi :
  ?mode:Ptrace.mode ->
  ?range:Range.t ->
  ?capture:string ->
  tool:(Ptrace.backend_entry -> Tool.t) ->
  string ->
  outcome
(** [run_multi ~tool path] replays [path] through one fresh processor and
    one [tool] instance per backend of the header's table, ops routed by
    their backend-id column in recorded order.  A solo trace (empty
    table) replays through one unlabelled backend-0 processor; two or
    more backends get processors labelled with their recorded labels.

    Ops are re-driven through the processors' entry points (annotations
    through [annot_start]/[annot_end], so range state is rebuilt); each
    maximal run of consecutive batch ops of one kernel on one backend is
    one {!Processor.submit_pieces} hand-off: one table whose pieces are
    the ops' batches, whole, each stamped with its recorded time.

    [mode] defaults to the {!Config.trace_strict} knob.  Strict replay
    raises {!Ptrace.Corrupt} on any damage.  Tolerant replay skips corrupt
    chunks and reports them in [chunks_skipped]; a corrupted chunk —
    always single-backend by construction — costs ops of that backend
    only, and the other backends' reports are unaffected.  An op whose
    backend id is missing from the table (in a solo trace: any id but 0)
    is corruption: strict mode raises, tolerant mode drops the op.

    [capture] re-records the replay to that path: the processors are
    tapped as a live session's are ({!Capture.start}, the header's meta
    kept), so each op is written as its processor re-drove it, batch ops
    with the stamps of their hand-off's pieces.  The processors' chunk
    counters then report the replay's read. *)

val run : ?mode:Ptrace.mode -> ?range:Range.t -> tool:Tool.t -> string -> outcome
(** [run ~tool path] is {!run_multi} with [tool] as the one tool of a solo
    trace.  Raises [Invalid_argument] on a mixed-backend trace. *)

(** {2 Offline inspection} *)

type stat = {
  s_header : Ptrace.header;
  s_bytes : int;  (** file size on disk *)
  s_ops : int;
  s_records : int;  (** fine-grained records (batches count their length) *)
  s_chunks : int;
  s_chunks_skipped : int;
  s_first_us : float;
  s_last_us : float;
  s_kinds : (string * int) list;  (** op-kind histogram, most frequent first *)
}

val stat : ?mode:Ptrace.mode -> string -> stat
val pp_stat : Format.formatter -> stat -> unit

type divergence =
  | Identical of int  (** op count *)
  | Op_mismatch of { index : int; a : string; b : string }
  | Length_mismatch of { a_ops : int; b_ops : int }
      (** one trace is a strict prefix of the other *)

val diff : ?mode:Ptrace.mode -> string -> string -> divergence
(** Structural comparison of two traces' op streams (chunking and
    interning layout are ignored — only the ops matter). *)

val pp_divergence : Format.formatter -> divergence -> unit
