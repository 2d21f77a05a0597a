(** Deterministic trace replay: re-drive a recorded [.ptrace] op stream
    through a fresh {!Processor} and tool, offline.

    Because the trace records submissions, the processor rebuilds
    everything it computed live — object-registry state, range
    filtering, bounded buffering, region summaries — so the replayed
    tool sees the exact callback sequence of the original run and
    produces a byte-identical report, provided the pipeline knobs
    (buffer capacity, overflow policy, batch delivery, guard thresholds)
    match the recording run.  Kernel-end device aggregates are the
    exception: the trace stores each flush's merged {!Devagg.summary},
    so replay re-drives the recorded aggregate instead of re-running the
    reduction — identical output (aggregation is deterministic for every
    domain count), a fraction of the wall time.

    Replay applies its own range filter: a trace recorded unfiltered can
    be re-analyzed over any sub-range. *)

type outcome = {
  header : Ptrace.header;
  tool_name : string;
  ops_replayed : int;
  chunks : int;
  chunks_skipped : int;  (** corrupt chunks skipped (tolerant mode) *)
  elapsed_us : float;  (** last simulated timestamp in the trace *)
  processor : Processor.t;  (** for stats / health inspection *)
  report : Format.formatter -> unit;  (** the tool's report, exception-safe *)
}

val run :
  ?mode:Ptrace.mode -> ?range:Range.t -> tool:Tool.t -> string -> outcome
(** [run ~tool path] replays [path] into a fresh processor driving
    [tool].  [mode] defaults to the {!Config.trace_strict} knob; strict
    replay raises {!Ptrace.Corrupt} on any damage, tolerant replay skips
    corrupt chunks and reports them in [chunks_skipped]. *)

val drive :
  ?mode:Ptrace.mode ->
  Processor.t ->
  string ->
  Ptrace.header * Ptrace.read_stats * float
(** Lower-level entry: replay into an existing processor (whatever tool
    and range it carries) and return the header, read stats and the last
    timestamp seen.  Ops are re-driven through the processor's entry
    points in recorded order (annotations through
    [annot_start]/[annot_end], so range state is rebuilt); each maximal
    run of consecutive batch ops of one kernel is one
    {!Processor.submit_access_views} hand-off, each op a whole-batch view
    stamped with its recorded time.  Used by {!run}. *)

(** {2 Mixed-backend replay} *)

type multi_outcome = {
  m_header : Ptrace.header;
  m_ops_replayed : int;
  m_chunks : int;
  m_chunks_skipped : int;
  m_elapsed_us : float;
  m_backends :
    (Ptrace.backend_entry * Processor.t * (Format.formatter -> unit)) list;
      (** one (entry, processor, exception-safe report) per header
          backend-table row, in table order *)
}

val run_multi :
  ?mode:Ptrace.mode ->
  ?range:Range.t ->
  tool:(Ptrace.backend_entry -> Tool.t) ->
  string ->
  multi_outcome
(** Replay a mixed-backend trace: one fresh processor (labelled with the
    backend's recorded label) and one tool instance per backend-table
    entry, ops routed by their backend-id column in recorded order.  A
    solo trace (empty table) replays through a single backend-0
    processor.  Batch ops are grouped as in {!drive}, a run never
    spanning two backends.  In tolerant mode, a corrupted chunk — always
    single-backend by construction — costs ops of that backend only; the
    other backends' reports are unaffected.  An op whose backend id is
    missing from the table is corruption: strict mode raises, tolerant
    mode drops the op. *)

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
