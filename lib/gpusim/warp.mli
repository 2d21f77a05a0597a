(** Warp-level memory-access record generation.

    Turns a kernel's access plan into concrete per-access records, the raw
    material of trace-based profiling.  Real workloads issue billions of
    accesses; materializing each one would make the simulator itself
    intractable, so generation is *sampled*: at most
    [max_records_per_region] records are emitted per region and each record
    carries a [weight] — the number of true dynamic accesses it stands for.
    Weights always sum to the region's exact access count, so aggregate
    statistics computed from samples are exact in total and approximate
    only in their spatial distribution. *)

type access = {
  addr : int;
  size : int;  (** bytes per access (4) *)
  write : bool;
  warp_id : int;
  pc : int;  (** PC of the issuing SASS instruction *)
  weight : int;  (** true accesses this sampled record represents *)
}

(** {2 Chunked generation}

    The parallel preprocessing path shards each region's records into
    fixed-size chunks and fills one packed flat-array {!batch} per chunk.
    The chunk layout depends only on the kernel and the sampling cap — never
    on the domain count — and each chunk draws from its own
    [Det_rng.of_key]-derived stream, so the concatenated batches are
    byte-identical whether chunks run serially or on any number of
    domains. *)

val chunk_records : int
(** Records per generation chunk (fixed; the determinism contract depends on
    it being independent of the domain count). *)

type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed native-int column: reads and writes never allocate (the
    int64/int32 Bigarray kinds would box every element access). *)

type size_col = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Access-size column; stores the low 16 bits (fault injection caps sizes
    at [1 lsl 11], so real values always fit). *)

type flag_col = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Write-flag column, one 0/1 element per record. *)

val alloc_int_col : int -> int_col
val alloc_size_col : int -> size_col
val alloc_flag_col : int -> flag_col
(** Fresh uninitialized columns of the given length (for decoders filling
    every element). *)

type cols = {
  addrs : int_col;
  sizes : size_col;
  warps : int_col;
  weights : int_col;
  writes : flag_col;  (** one 0/1 element per record *)
}
(** The five record columns of a batch, struct-of-arrays. *)

type chunk_spec = private {
  cs_region : Kernel.region;
  cs_region_idx : int;
  cs_pc : int;
  cs_n : int;  (** sampled records in the whole region *)
  cs_chunk : int;
  cs_start : int;  (** first record index covered by this chunk *)
  cs_len : int;
}
(** One generation chunk: records [cs_start] to [cs_start + cs_len - 1] of
    a region sampled into [cs_n] records. *)

type dense
(** A dense batch's columns, reachable through {!cols}. *)

type shape = private
  | Dense of dense
  | Descriptor of { spec : chunk_spec; warp_size : int }
      (** the chunk's records are exactly those {!fill_chunk} would
          generate for [spec], a whole {!plan} chunk in closed form
          ({!closed_form}); its columns are built only when {!cols} or
          {!sub} is asked for them, and {!cursor}, {!walk} and
          {!split_weight} read it without any *)
(** How a batch holds its records. *)

type batch = private {
  b_region : int;  (** region index within the kernel *)
  b_chunk : int;  (** chunk index within the region *)
  b_pc : int;  (** PC shared by every record of the region *)
  b_len : int;
  b_shape : shape;
}
(** A chunk of sampled records.  The header fields are immutable.  The
    records are reachable only through {!cols}, so no consumer can read a
    descriptor's absent columns by accident.  A dense batch's Bigarray
    columns are shared, not copied, by every consumer downstream
    (zero-copy).  Ownership rule: after a batch is handed to the
    processor, the {e fault injector} ({!Faults}) is the only writer;
    tools must treat columns as read-only.  A batch produced by {!thin}
    or {!sub} may be a sub-view of a longer buffer — always bound loops
    by [b_len], never by the underlying buffer size. *)

val cols : batch -> cols
(** The batch's columns: a dense batch's own (shared) columns, or fresh
    columns built from a descriptor with {!fill_chunk}'s formulas.  Never
    mutates the batch, so a descriptor may be read from any domain. *)

val batch_len : batch -> int

val record_bytes : int
(** Bytes one record occupies across the five columns of a dense batch. *)

val batch_bytes : batch -> int
(** Bytes the five columns of a dense batch occupy: what a decoder
    allocates to materialize it.  A descriptor holds no columns and
    decodes in O(1), so its [batch_bytes] is 0. *)

val batch_weight : batch -> int
(** Sum of record weights, i.e. the true accesses the batch stands for.
    A descriptor's is computed in closed form, without building columns. *)

val sub : batch -> pos:int -> len:int -> batch
(** [sub b ~pos ~len] is records [pos] to [pos + len - 1] of [b] ([b]
    itself when that is all of it): of a dense batch, a zero-copy view
    sharing its columns; of a descriptor, fresh columns holding only
    those records, so every descriptor stays a whole {!plan} chunk.
    Raises [Invalid_argument] outside [0, batch_len b). *)

val empty : batch
(** A batch of no records: the filler of the tables below. *)

(** {2 A kernel's pieces}

    A record channel hands the host a kernel's records as one table.
    Piece [i] is records [p_pos.(i)] to [p_pos.(i) + p_len.(i) - 1] of
    [p_batch.(i)], handed over at simulated time [p_time.(i)]: all of a
    batch, or its part between two flush points.  A channel reuses its
    table kernel after kernel, so a piece allocates nothing once the
    table has grown. *)

type pieces = private {
  mutable p_batch : batch array;
  mutable p_pos : int array;
  mutable p_len : int array;
  mutable p_time : float array;
  mutable p_count : int;  (** pieces [0, p_count) are in the table *)
  mutable p_stamped : int;  (** pieces [0, p_stamped) carry their stamp *)
}

val pieces : unit -> pieces
val add_piece : pieces -> batch -> pos:int -> len:int -> unit
(** [add_piece p b ~pos ~len] appends records [pos] to [pos + len - 1] of
    [b], unstamped.  Raises [Invalid_argument] outside [0, batch_len b),
    so a consumer may read a piece's records unchecked. *)

val stamp_pieces : pieces -> float -> unit
(** Stamp every unstamped piece: a flush, once its charges land. *)

val clear_pieces : pieces -> unit
(** Empty the table, dropping its references to the batches. *)

val hand_off : pieces -> (pieces -> unit) -> unit
(** [hand_off p f] calls [f p] unless [p] is empty, then empties [p]
    (also when [f] raises): [f] must not keep the table. *)

type source
(** Where a {!cursor} reads its next record from: a dense batch's
    columns, or a descriptor's formulas. *)

type cursor = private {
  mutable c_addr : int;
  mutable c_size : int;
  mutable c_write : bool;
  mutable c_warp : int;
  mutable c_weight : int;
  mutable c_pc : int;  (** the batch's [b_pc] *)
  mutable c_left : int;  (** records sought and not yet read *)
  c_src : source;
}
(** A batch's records, one at a time: after {!next}, the [c_] fields
    hold the record it read.  A cursor is re-pointed from piece to piece
    with {!seek}, so reading one allocates nothing. *)

val cursor : unit -> cursor
(** A cursor with no records left. *)

val seek : cursor -> batch -> pos:int -> len:int -> unit
(** [seek c b ~pos ~len] points [c] before record [pos] of [b], with
    [len] records to read, in O(1): a descriptor's records are stepped
    from its formulas, seeded with a few divisions, never filled.  Raises
    [Invalid_argument] outside [0, batch_len b). *)

val next : cursor -> unit
(** [next c] reads the next sought record into [c]'s fields: a dense
    batch's from its columns, a descriptor's by stepping its formulas
    with {!fill_chunk}'s arithmetic, so the fields equal the filled
    columns record for record.  Raises [Invalid_argument] past the last
    sought record. *)

val split_weight : batch -> count:int -> cap:int -> full:(int -> int -> unit) -> int
(** A channel buffer's fill points.  [split_weight b ~count ~cap ~full]
    adds the weights of [b]'s records, in order, to a running count that
    starts at [count].  Each time the count reaches [cap], after record
    [k - 1], it calls [full k total], [total] being the count at that
    point, and restarts the count at 0.  It returns the count after the
    last record.  A dense batch walks its weight column; a descriptor
    finds each point by arithmetic on its weights ([accesses / n], plus
    one for the region's first [accesses mod n] records), in O(points),
    at the same records. *)

val batch_of_arrays :
  region:int ->
  chunk:int ->
  pc:int ->
  addrs:int array ->
  sizes:int array ->
  warps:int array ->
  weights:int array ->
  writes:Bytes.t ->
  batch
(** Rebuild a dense batch from boxed parts — the stable compatibility
    constructor tests and synthetic producers use.  Validates that every
    array has the same length and that the header fields are non-negative;
    the arrays are *copied* into fresh columns (callers keep ownership of
    their inputs). *)

val batch_of_columns :
  region:int ->
  chunk:int ->
  pc:int ->
  addrs:int_col ->
  sizes:size_col ->
  warps:int_col ->
  weights:int_col ->
  writes:flag_col ->
  batch
(** Adopt columns zero-copy — the constructor trace decoders use.  The
    batch aliases the given Bigarrays; callers must not retain writable
    references.  Validates equal column lengths and non-negative header
    fields. *)

val plan : max_records_per_region:int -> Kernel.t -> chunk_spec array
(** [plan ~max_records_per_region k] lists the generation chunks of [k] in
    (region, chunk) order; empty regions yield no chunks.  A region with
    [accesses] dynamic accesses is sampled into
    [n = min accesses max_records_per_region] records, so every non-empty
    region yields at least one record and object-coverage analyses never
    miss a touched region. *)

(** {2 The sampling formulas}

    Record [i] (of [n]) of region [r] lies at [r.base + offset i], where,
    with [span = max 1 (r.bytes - 4)] (4 being the bytes per access),
    [offset i] is [span * i / n] for [Sequential] (spread evenly over
    the extent), [max 4 s * i mod span] for [Strided s] (walking in the
    step, wrapping), and a uniform draw from [\[0, span)] for [Random].
    It weighs [accesses / n], plus one for [i < accesses mod n], so a
    region's weights sum to its exact access count. *)

val fill_chunk : rng:Pasta_util.Det_rng.t -> warp_size:int -> chunk_spec -> batch
(** [fill_chunk ~rng ~warp_size spec] materializes the records of one chunk
    as dense columns.  [Random] regions draw from [rng], which callers
    must derive per chunk with [Det_rng.of_key]. Safe to call from any
    domain.  Record [i]'s warp is [i * warp_size mod warp_wrap /
    warp_size], with [warp_wrap = max warp_size (span / 4)].  The fill
    evaluates the formulas above once, at the chunk's first record, and
    steps each record from there by exact integer arithmetic, so it
    divides per chunk, not per record.  That stepper is the one
    {!cursor} reads a descriptor with. *)

(** {2 Descriptors}

    A closed-form chunk can travel as its spec instead of its columns.
    Its parts are bounded so that no product the fill or the walker
    forms can overflow: a base in [\[0, 2^56\]], an extent and a
    non-negative stride of at most 2^38 bytes, at most 2^22 sampled
    records per region, and a warp size in [\[1, 1024\]]. *)

val closed_form : chunk_spec -> bool
(** The chunk's records follow from its spec alone: a [Sequential] or
    [Strided] region (stride non-negative) whose base, extent, stride
    and record count are within the bounds above. *)

val describe : warp_size:int -> chunk_spec -> batch
(** [describe ~warp_size spec] is the descriptor of the chunk
    [fill_chunk] would fill, in O(1).  Raises [Invalid_argument] unless
    [closed_form spec] and [warp_size] is in bounds. *)

val descriptor :
  region:int ->
  chunk:int ->
  pc:int ->
  len:int ->
  warp_size:int ->
  n:int ->
  Kernel.region ->
  (batch, string) result
(** Rebuild a descriptor from its parts — the constructor trace decoders
    use, so {!chunk_spec} stays private.  [region], [chunk], [pc] and
    [len] are the batch header, [n] the region's sampled record count,
    and the chunk starts at record [chunk * chunk_records].  [Ok] exactly
    when {!describe} could have produced the batch: the parts are within
    the bounds above, [n <= accesses], [pc] is the {!plan} pc of
    [region], and [chunk] and [len] are one of {!plan}'s chunks of [n]
    records.  [Error] names the first part that is not. *)

val walk : chunk_spec -> limit:(int -> int) -> run:(int -> int -> unit) -> unit
(** The descriptor walker: [walk spec ~limit ~run] visits the records of
    a closed-form chunk in order, as runs, without building columns.
    The chunk splits into address-monotone segments: all of a
    [Sequential] chunk, each stride wrap of a [Strided] one.  At the
    first record of each run, at address [addr], the walker calls
    [limit addr]; the consumer returns the first address past [addr]
    that may resolve differently for it (an object's end, a block
    boundary), which must exceed [addr].  The run extends to the first
    record of the segment at or past that address, or to the segment's
    end, and the walker calls [run addr w]: the run's records lie, in
    ascending order, in [\[addr, limit addr)] and weigh [w] in total.
    Costs O(runs + segments) integer steps, with no allocation. *)

val thin : rng:Pasta_util.Det_rng.t -> rate:float -> batch -> batch
(** [thin ~rng ~rate b] keeps each record of [b] independently with
    probability [rate] and rescales surviving weights by [1/rate] using
    randomized rounding, so the expectation of every weighted statistic is
    unchanged (inverse-probability weighting with integer weights).  [rate
    >= 1.0] returns [b] itself, physically unchanged; below that the
    result is dense.  Callers must derive [rng] per chunk with
    [Det_rng.of_key] (with a salt distinct from the fill stream) so
    thinning is deterministic for any domain count and leaves the fill
    draws untouched. *)
