(** The [.ptrace] binary trace format: codec, chunked writer, chunked
    reader.

    A trace records the *submission-level* op stream of a live session
    ({!Processor.sink_op} plus timestamps), so replaying it through a
    fresh processor deterministically rebuilds every derived callback
    (region summaries, buffering and guard behaviour) exactly as the
    live run saw them.  The one derived result that is also stored is
    each kernel-end {!Devagg.summary} (as a [Device_summary] payload
    right after its flush marker): aggregation is deterministic, so
    replay re-drives the recorded aggregate instead of paying the
    reduction again.

    Layout: a header (magic ["PTRC"], version byte, device id, free-form
    meta string) followed by self-contained chunks, each framed with its
    payload length, op count and a CRC-32 of the payload.  Kernel
    descriptors are interned per chunk, so a corrupt chunk can be
    skipped without poisoning the rest of the file.  See
    docs/DEVELOPER_GUIDE.md for the byte-level spec and the
    compatibility rule. *)

exception Corrupt of string
(** Raised on malformed input: bad magic, unsupported version, CRC
    mismatch, framing violation or truncation.  A length field larger
    than what is left of the file, or a varint that reaches bit 62, is
    refused this way before anything is allocated, and so is a batch
    descriptor that no live run can produce
    ({!Gpusim.Warp.descriptor}).  One chunk may decode to at most 64
    MiB plus one batch of 2^22 records of dense batch columns and
    summary pairs (about 172 MiB; a record costs
    {!Gpusim.Warp.record_bytes}, a pair 16 bytes), more than the
    columns of any chunk a writer flushes.  Each is charged before it
    is allocated, and a chunk past the bound is refused the same way. *)

val version : int
(** Format version this build writes and reads. *)

(** {2 Writer} *)

type backend_entry = { b_id : int; b_device : int; b_label : string }
(** One row of the header's backend table (v4): the per-op backend-id
    column refers to these ids.  Solo captures have an empty table and
    stamp every op with backend 0. *)

type writer

val create_writer :
  ?chunk_bytes:int ->
  ?meta:string ->
  ?backends:backend_entry list ->
  device:int ->
  string ->
  writer
(** [create_writer ~device path] opens [path] and writes the header.
    [chunk_bytes] (default {!Config.trace_chunk_bytes}) bounds capture
    and replay memory: the op buffer is flushed as a framed chunk as soon
    as its encoded ops, or the dense batch columns they decode to
    ({!Gpusim.Warp.batch_bytes}), reach that size, and at
    {!close_writer}.  A reader decodes a whole chunk before applying it,
    so the decoded bound is what it materializes at once.  A batch
    written as its descriptor decodes in O(1) and counts toward the
    encoded bound only.  [backends] (default
    empty — a solo capture) is the mixed-backend table recorded in the
    header; replay uses it to recreate one processor per backend. *)

val write_op :
  writer -> time_us:float -> ?backend:int -> Processor.sink_op -> unit
(** [backend] (default 0) is the backend-id column stamped on the op.
    The writer keeps chunks single-backend: a backend switch flushes the
    current chunk first, so corruption of any one chunk costs ops of
    exactly one backend. *)

val close_writer : writer -> unit
(** Flush the final chunk and close the file.  Idempotent. *)

val writer_bytes : writer -> int
(** Bytes on disk plus the not-yet-flushed buffer. *)

val writer_chunks : writer -> int

(** {2 Reader} *)

type mode = Strict | Tolerant

type header = {
  h_version : int;
  h_device : int;
  h_meta : string;
  h_backends : backend_entry list;
      (** mixed-backend table; empty for solo captures *)
}

type read_stats = {
  mutable r_ops : int;  (** ops decoded from intact chunks *)
  mutable r_chunks : int;  (** intact chunks read *)
  mutable r_chunks_skipped : int;  (** corrupt chunks skipped (tolerant) *)
}

val read_header_of_file : string -> header
(** Parse just the header of a trace (cheap — no chunk is read). *)

val read_file :
  ?mode:mode ->
  ?pool:Pasta_util.Domain_pool.t ->
  string ->
  f:(time_us:float -> Processor.sink_op -> unit) ->
  header * read_stats
(** Stream the chunks of a trace, calling [f] on every op in recorded
    order.  [Strict] (default) raises {!Corrupt} on the first CRC
    mismatch, framing violation or truncation; [Tolerant] skips the
    offending chunk and keeps going.  A corrupt chunk is all-or-nothing:
    none of its ops reach [f].  When [pool] is supplied (size > 1),
    chunks are CRC-checked and decoded in parallel, a bounded window at
    a time — chunks are self-contained, and [f] still runs in recorded
    order, so results are identical to the serial read. *)

val read_file_ext :
  ?mode:mode ->
  ?pool:Pasta_util.Domain_pool.t ->
  string ->
  f:(time_us:float -> backend:int -> Processor.sink_op -> unit) ->
  header * read_stats
(** Like {!read_file}, additionally exposing each op's backend-id
    column.  Mixed-backend replay routes ops to per-backend processors
    with it; solo traces see backend 0 throughout. *)

(** {2 Inspection helpers} *)

val op_kind_name : Processor.sink_op -> string
(** Classifier for op histograms ([trace stat]); [Sk_event] ops report
    their payload's {!Event.kind_name}. *)

val op_records : Processor.sink_op -> int
(** Fine-grained records the op carries (a batch counts its length). *)

(** {2 Standalone payload codec}

    Round-trip codec for a single {!Event.payload} with a fresh
    kernel-interning context, used by property tests. *)

val payload_to_string : Event.payload -> string

val op_to_string : time_us:float -> ?backend:int -> Processor.sink_op -> string
(** Canonical self-contained encoding of one op (fresh interning
    context; [backend] defaults to 0), used to fingerprint op streams
    for [trace diff]. *)

val payload_of_string : string -> Event.payload
(** Raises {!Corrupt} on malformed or trailing bytes. *)

val op_of_string : string -> float * int * Processor.sink_op
(** Decode one op as {!op_to_string} encodes it: its time stamp, backend
    id and op.  An op of tag 1, a single record as writers of this
    version wrote it while tools could be fed record by record, decodes
    to a one-record [Sk_batch] (region 0, chunk 0, the record's pc).
    Raises {!Corrupt} on malformed or trailing bytes. *)
