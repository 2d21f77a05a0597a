(* The .ptrace binary trace format.

   A capture file is a small header followed by independent chunks:

     header := magic "PTRC" | version byte | varint device | string meta
             | backend table: varint count
               | per entry: varint backend id | varint device | string label
     chunk  := varint payload_len | varint op_count
             | u32le CRC-32 of payload | payload bytes

   The payload is a sequence of submission-level ops ({!Processor.sink_op}
   plus a simulated timestamp), varint-encoded: unsigned LEB128 for
   counts/sizes, zigzag LEB128 for quantities that can be negative,
   raw little-endian IEEE-754 for floats, length-prefixed bytes for
   strings.  Kernel descriptors are interned *per chunk* — the first op of
   a chunk referencing a kernel carries the full descriptor, later ops a
   one-varint handle — so every chunk decodes on its own and a corrupt
   chunk costs exactly its own ops and nothing downstream.

   Compatibility rule: the version byte gates everything after the magic.
   Additive evolution (new op tags, new payload tags) keeps the version;
   readers reject unknown tags as corruption, which tolerant mode turns
   into skipped chunks.  Any change to existing encodings bumps the
   version, and readers refuse versions they don't know. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "PTRC"

(* v3: Device_summary gained the per-region weighted tally
   ([Devagg.regions]) — a change to an existing encoding, so per the
   compatibility rule the version bumps and v2 readers/writers are
   disjoint.  The Region_enter/Region_exit payloads (tags 20/21) rode
   the same bump.

   v4: mixed-backend sessions.  Every op gained a backend-id varint
   between its tag and timestamp (0 for solo captures), and the header
   gained a backend table mapping ids to (device, label) pairs (empty
   for solo captures) — changes to existing encodings, so the version
   bumps again.  The writer starts a fresh chunk whenever the backend id
   changes, keeping every chunk single-backend: a corrupt chunk then
   costs ops of exactly one backend, which is what lets a tolerant
   reader skip one backend's damage without touching the others.

   v5: Device_summary lost its coalesced-interval pair list, which no
   consumer read; the payload now carries objects, then the [blocks] and
   [regions] pair lists.  Dropping a field changes an existing encoding,
   so the version bumps and v4 files are refused.

   v6: batch columns are written as their first value plus first
   differences (see [put_int_col]); simulated addresses and warp ids are
   arithmetic progressions, so most columns shrink to a single constant.
   The column bytes change, so the version bumps and v5 files are
   refused.

   v7: a batch carries a shape byte after its header.  A dense batch
   (shape 0) keeps the v6 columns; a closed-form chunk (shape 1) is
   written as its descriptor — the region's parts and sampling, from
   which {!Gpusim.Warp.descriptor} rebuilds it in O(1) — so the 99% of
   a fine-grained capture that is closed-form no longer costs columns
   to write or read.  The batch bytes change, so the version bumps and
   v6 files are refused.

   Payload tag 8 (a per-record global-access event) is retired without a
   bump: only the tool-side record delivery ever built that event, after
   the capture tap, so no v7 writer emitted it, and it reads as an unknown
   payload tag like any other. *)
let version = 7

(* ------------------------------------------------------------------ *)
(* Encoding primitives                                                 *)
(* ------------------------------------------------------------------ *)

let put_u buf n =
  if n < 0 then invalid_arg "Ptrace.put_u: negative";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (- (u land 1))
let put_z buf n = put_u buf (zigzag n)
let put_f buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)
let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_str buf s =
  put_u buf (String.length s);
  Buffer.add_string buf s

type cursor = { c_s : string; mutable c_pos : int; c_limit : int }

let cursor ?(pos = 0) ?limit s =
  let limit = match limit with Some l -> l | None -> String.length s in
  { c_s = s; c_pos = pos; c_limit = limit }

let at_end c = c.c_pos >= c.c_limit

let get_byte c =
  if c.c_pos >= c.c_limit then corrupt "truncated varint";
  let b = Char.code c.c_s.[c.c_pos] in
  c.c_pos <- c.c_pos + 1;
  b

(* A value must stay below 2^62: the ninth byte may carry only bits 56-61,
   because bit 62 is the sign bit of a native int and a continuation would
   need a tenth byte. *)
let rec get_u_slow c acc shift =
  let b = get_byte c in
  if shift = 56 && b > 0x3f then corrupt "varint out of range";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_u_slow c acc (shift + 7)

(* Single-byte values dominate real traces (sizes, warp ids, weights,
   small address deltas), so the common case is inlined: one bounds
   check, one unsafe read. *)
let get_u c =
  let pos = c.c_pos in
  if pos >= c.c_limit then corrupt "truncated varint";
  let b = Char.code (String.unsafe_get c.c_s pos) in
  if b < 0x80 then begin
    c.c_pos <- pos + 1;
    b
  end
  else get_u_slow c 0 0

let get_z c = unzigzag (get_u c)

let get_f c =
  if c.c_pos + 8 > c.c_limit then corrupt "truncated float";
  let v = String.get_int64_le c.c_s c.c_pos in
  c.c_pos <- c.c_pos + 8;
  Int64.float_of_bits v

let get_bool c = get_byte c <> 0

let get_str c =
  let len = get_u c in
  if len > c.c_limit - c.c_pos then corrupt "truncated string";
  let s = String.sub c.c_s c.c_pos len in
  c.c_pos <- c.c_pos + len;
  s

(* ------------------------------------------------------------------ *)
(* Domain-type codecs                                                  *)
(* ------------------------------------------------------------------ *)

let put_api_phase buf = function
  | `Enter -> put_u buf 0
  | `Exit -> put_u buf 1

let get_api_phase c =
  match get_u c with
  | 0 -> `Enter
  | 1 -> `Exit
  | n -> corrupt "bad api phase %d" n

let put_frames buf frames =
  put_u buf (List.length frames);
  List.iter
    (fun (f : Gpusim.Hostctx.frame) ->
      put_str buf f.Gpusim.Hostctx.file;
      put_u buf f.Gpusim.Hostctx.line;
      put_str buf f.Gpusim.Hostctx.symbol)
    frames

let get_frames c =
  let n = get_u c in
  List.init n (fun _ ->
      let file = get_str c in
      let line = get_u c in
      let symbol = get_str c in
      { Gpusim.Hostctx.file; line; symbol })

let put_dim3 buf (d : Gpusim.Dim3.t) =
  put_u buf d.Gpusim.Dim3.x;
  put_u buf d.Gpusim.Dim3.y;
  put_u buf d.Gpusim.Dim3.z

let get_dim3 c =
  let x = get_u c in
  let y = get_u c in
  let z = get_u c in
  { Gpusim.Dim3.x; y; z }

let put_kernel_info_body buf (k : Event.kernel_info) =
  put_u buf k.Event.device_id;
  put_u buf k.Event.grid_id;
  put_u buf k.Event.stream;
  put_str buf k.Event.name;
  put_dim3 buf k.Event.grid;
  put_dim3 buf k.Event.block;
  put_u buf k.Event.shared_bytes;
  put_u buf (List.length k.Event.arg_ptrs);
  List.iter (put_z buf) k.Event.arg_ptrs;
  put_frames buf k.Event.py_stack;
  put_frames buf k.Event.native_stack

let get_kernel_info_body c =
  let device_id = get_u c in
  let grid_id = get_u c in
  let stream = get_u c in
  let name = get_str c in
  let grid = get_dim3 c in
  let block = get_dim3 c in
  let shared_bytes = get_u c in
  let nargs = get_u c in
  let arg_ptrs = List.init nargs (fun _ -> get_z c) in
  let py_stack = get_frames c in
  let native_stack = get_frames c in
  {
    Event.device_id;
    grid_id;
    stream;
    name;
    grid;
    block;
    shared_bytes;
    arg_ptrs;
    py_stack;
    native_stack;
  }

(* Per-chunk kernel interning.  The encoder keys on [grid_id] (launch ids
   are unique per device, and every kernel_info of a launch is structurally
   identical); the decoder keeps slots in definition order.  Each context
   also owns the int scratch that batch-column differences go through
   when they are not constant (see [put_col]); it grows on demand and is
   reused by every later batch. *)

type intern = {
  by_grid : (int, int) Hashtbl.t;
  mutable next : int;
  mutable enc_diffs : int array;
}

type extern = {
  by_slot : (int, Event.kernel_info) Hashtbl.t;
  mutable count : int;
  mutable dec_diffs : int array;
}

let intern () = { by_grid = Hashtbl.create 32; next = 0; enc_diffs = [||] }
let extern () = { by_slot = Hashtbl.create 32; count = 0; dec_diffs = [||] }

(* A new chunk starts a new interning scope; the scratch survives. *)
let reset_intern it =
  Hashtbl.reset it.by_grid;
  it.next <- 0

let grow a n = if Array.length a >= n then a else Array.make n 0

let put_kernel it buf (k : Event.kernel_info) =
  match Hashtbl.find_opt it.by_grid k.Event.grid_id with
  | Some slot -> put_u buf (slot + 1)
  | None ->
      Hashtbl.add it.by_grid k.Event.grid_id it.next;
      it.next <- it.next + 1;
      put_u buf 0;
      put_kernel_info_body buf k

let get_kernel ex c =
  match get_u c with
  | 0 ->
      let k = get_kernel_info_body c in
      Hashtbl.replace ex.by_slot ex.count k;
      ex.count <- ex.count + 1;
      k
  | handle -> (
      match Hashtbl.find_opt ex.by_slot (handle - 1) with
      | Some k -> k
      | None -> corrupt "undefined kernel handle %d" (handle - 1))

let put_access buf (a : Event.mem_access) =
  put_z buf a.Event.addr;
  put_u buf a.Event.size;
  put_bool buf a.Event.write;
  put_u buf a.Event.pc;
  put_u buf a.Event.warp;
  put_u buf a.Event.weight

let get_access c =
  let addr = get_z c in
  let size = get_u c in
  let write = get_bool c in
  let pc = get_u c in
  let warp = get_u c in
  let weight = get_u c in
  { Event.addr; size; write; pc; warp; weight }

(* Op tag 1: one record on its own, as writers of this version wrote it
   while tools could be fed record by record.  It decodes to a one-record
   batch of region 0, chunk 0 and the record's pc, which replays to the
   same per-record callback stream.  A batch stores sizes in 16 bits. *)
let get_record c =
  let a = get_access c in
  if a.Event.size > 0xffff then corrupt "record size %d exceeds 16 bits" a.Event.size;
  Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:a.Event.pc ~addrs:[| a.Event.addr |]
    ~sizes:[| a.Event.size |] ~warps:[| a.Event.warp |] ~weights:[| a.Event.weight |]
    ~writes:(Bytes.make 1 (if a.Event.write then '\001' else '\000'))

(* Integer-column codec.  Each encoded column starts with a varint tag:

     tag 0 (raw)      n varints, one per element
     tag 1 (rle)      varint run count, then (value, run length) pairs
     tag 2 (two)      two varint values, then 1 bit per element
     tag 3 (const)    a single varint value

   Values must be non-negative; batch columns feed it zigzag differences
   (see [put_int_col]). *)
let col_raw = 0
let col_rle = 1
let col_two = 2
let col_const = 3

let rec varint_bytes n = if n < 0x80 then 1 else 1 + varint_bytes (n lsr 7)

(* Write [a.(0 .. n-1)], which the caller has found not to be constant
   (n >= 2).  A two-valued column takes the two-valued form unless rle is
   smaller (a progression with one break is three runs, far smaller than
   a bitmap); otherwise rle is taken when it is no larger than the
   smallest raw encoding, one byte per element. *)
let put_col buf (a : int array) n =
  let v0 = a.(0) in
  let second = ref v0 and distinct = ref 1 in
  let runs = ref 1 and run_start = ref 0 and rle_bytes = ref 0 in
  for i = 1 to n - 1 do
    let v = Array.unsafe_get a i in
    let prev = Array.unsafe_get a (i - 1) in
    if v <> prev then begin
      incr runs;
      rle_bytes := !rle_bytes + varint_bytes prev + varint_bytes (i - !run_start);
      run_start := i
    end;
    if !distinct = 1 then begin
      if v <> v0 then begin
        second := v;
        distinct := 2
      end
    end
    else if !distinct = 2 && v <> v0 && v <> !second then distinct := 3
  done;
  let rle_bytes =
    !rle_bytes + varint_bytes (Array.unsafe_get a (n - 1))
    + varint_bytes (n - !run_start)
    + varint_bytes !runs
  in
  let two_bytes = varint_bytes v0 + varint_bytes !second + ((n + 7) / 8) in
  if !distinct <= 2 && two_bytes <= rle_bytes then begin
    put_u buf col_two;
    put_u buf v0;
    put_u buf !second;
    (* LSB-first, a byte per 8 elements; a set bit selects [second] *)
    let byte = ref 0 in
    for i = 0 to n - 1 do
      if Array.unsafe_get a i <> v0 then byte := !byte lor (1 lsl (i land 7));
      if i land 7 = 7 || i = n - 1 then begin
        Buffer.add_char buf (Char.unsafe_chr !byte);
        byte := 0
      end
    done
  end
  else if rle_bytes <= n then begin
    put_u buf col_rle;
    put_u buf !runs;
    let i = ref 0 in
    while !i < n do
      let v = Array.unsafe_get a !i in
      let j = ref (!i + 1) in
      while !j < n && Array.unsafe_get a !j = v do
        incr j
      done;
      put_u buf v;
      put_u buf (!j - !i);
      i := !j
    done
  end
  else begin
    put_u buf col_raw;
    for i = 0 to n - 1 do
      put_u buf (Array.unsafe_get a i)
    done
  end

(* Decode [n] elements of a column whose tag is [tag] into [a], which
   holds at least [n].  The constant form is the caller's fast path. *)
let get_col c tag (a : int array) n =
  match tag with
  | 0 (* raw *) ->
      for i = 0 to n - 1 do
        Array.unsafe_set a i (get_u c)
      done
  | 1 (* rle *) ->
      let nruns = get_u c in
      let filled = ref 0 in
      for _ = 1 to nruns do
        let v = get_u c in
        let r = get_u c in
        if r <= 0 || r > n - !filled then corrupt "bad column run";
        Array.fill a !filled r v;
        filled := !filled + r
      done;
      if !filled <> n then corrupt "column rle covers %d of %d" !filled n
  | 2 (* two *) ->
      let v0 = get_u c in
      let v1 = get_u c in
      let nbytes = (n + 7) / 8 in
      if nbytes > c.c_limit - c.c_pos then corrupt "truncated column bits";
      for i = 0 to n - 1 do
        Array.unsafe_set a i
          (if
             Char.code (String.unsafe_get c.c_s (c.c_pos + (i lsr 3)))
             land (1 lsl (i land 7))
             <> 0
           then v1
           else v0)
      done;
      c.c_pos <- c.c_pos + nbytes
  | n -> corrupt "bad column tag %d" n

let get_diffs ex c tag n =
  let s = grow ex.dec_diffs n in
  ex.dec_diffs <- s;
  get_col c tag s n;
  s

(* Batch columns (v6): the first value as a zigzag varint, then the
   [len - 1] zigzag first differences through the column codec.
   Simulated addresses and warp ids are arithmetic progressions, so the
   differences are almost always one constant: one pass over the column
   finds the common step, and the scratch is written only from the point
   where the progression breaks.  Differences must lie in [-2^61, 2^61).

   Element access compiles inline only when the Bigarray kind is static
   (there is no flambda to specialize a generic loop), so the four loops
   below are written once for [int_col] and once for [size_col]. *)

let put_step buf step =
  put_u buf col_const;
  put_z buf step

(* The encoder's scratch for [n] differences, its first [upto] filled
   with [step] (the progression before it broke). *)
let steps_scratch it ~step ~upto n =
  let s = grow it.enc_diffs n in
  it.enc_diffs <- s;
  Array.fill s 0 upto (zigzag step);
  s

let put_int_col it buf (a : Gpusim.Warp.int_col) len =
  if len > 0 then begin
    put_z buf (Bigarray.Array1.unsafe_get a 0);
    let step = if len > 1 then Bigarray.Array1.(unsafe_get a 1 - unsafe_get a 0) else 0 in
    let i = ref 2 in
    while !i < len && Bigarray.Array1.(unsafe_get a !i - unsafe_get a (!i - 1)) = step do
      incr i
    done;
    if !i >= len then put_step buf step
    else begin
      let s = steps_scratch it ~step ~upto:(!i - 1) (len - 1) in
      for j = !i to len - 1 do
        Array.unsafe_set s (j - 1)
          (zigzag Bigarray.Array1.(unsafe_get a j - unsafe_get a (j - 1)))
      done;
      put_col buf s (len - 1)
    end
  end

let put_size_col it buf (a : Gpusim.Warp.size_col) len =
  if len > 0 then begin
    put_z buf (Bigarray.Array1.unsafe_get a 0);
    let step = if len > 1 then Bigarray.Array1.(unsafe_get a 1 - unsafe_get a 0) else 0 in
    let i = ref 2 in
    while !i < len && Bigarray.Array1.(unsafe_get a !i - unsafe_get a (!i - 1)) = step do
      incr i
    done;
    if !i >= len then put_step buf step
    else begin
      let s = steps_scratch it ~step ~upto:(!i - 1) (len - 1) in
      for j = !i to len - 1 do
        Array.unsafe_set s (j - 1)
          (zigzag Bigarray.Array1.(unsafe_get a j - unsafe_get a (j - 1)))
      done;
      put_col buf s (len - 1)
    end
  end

(* A constant step refills the progression; any other form is decoded
   into the scratch and prefix-summed. *)
let get_int_col ex c (a : Gpusim.Warp.int_col) len =
  if len > 0 then begin
    let v = ref (get_z c) in
    Bigarray.Array1.unsafe_set a 0 !v;
    match get_u c with
    | 3 (* const *) ->
        let step = get_z c in
        for i = 1 to len - 1 do
          v := !v + step;
          Bigarray.Array1.unsafe_set a i !v
        done
    | tag ->
        let s = get_diffs ex c tag (len - 1) in
        for i = 1 to len - 1 do
          v := !v + unzigzag (Array.unsafe_get s (i - 1));
          Bigarray.Array1.unsafe_set a i !v
        done
  end

let get_size_col ex c (a : Gpusim.Warp.size_col) len =
  if len > 0 then begin
    let v = ref (get_z c) in
    Bigarray.Array1.unsafe_set a 0 !v;
    match get_u c with
    | 3 (* const *) ->
        let step = get_z c in
        for i = 1 to len - 1 do
          v := !v + step;
          Bigarray.Array1.unsafe_set a i !v
        done
    | tag ->
        let s = get_diffs ex c tag (len - 1) in
        for i = 1 to len - 1 do
          v := !v + unzigzag (Array.unsafe_get s (i - 1));
          Bigarray.Array1.unsafe_set a i !v
        done
  end

(* Upper bound on a decoded batch: generated batches hold at most
   {!Gpusim.Warp.chunk_records} records, but column compression means a
   tiny payload can declare a huge length, so corrupt data must not be
   able to force absurd allocations. *)
let max_batch_len = 1 lsl 22

(* Batch shapes (v7): the byte after the batch header. *)
let shape_dense = 0
let shape_descriptor = 1

(* A descriptor body: warp size, the region's sampled record count, then
   the region (base, extent, accesses, write flag, pattern).  The chunk's
   first record is implied by its index. *)
let put_descriptor buf (spec : Gpusim.Warp.chunk_spec) ~warp_size =
  let module W = Gpusim.Warp in
  let r = spec.W.cs_region in
  put_u buf warp_size;
  put_u buf spec.W.cs_n;
  put_z buf r.Gpusim.Kernel.base;
  put_u buf r.Gpusim.Kernel.bytes;
  put_u buf r.Gpusim.Kernel.accesses;
  put_bool buf r.Gpusim.Kernel.write;
  match r.Gpusim.Kernel.pattern with
  | Gpusim.Kernel.Sequential -> put_u buf 0
  | Gpusim.Kernel.Strided s ->
      put_u buf 1;
      put_z buf s
  | Gpusim.Kernel.Random -> put_u buf 2

(* Every part is checked by the constructor, which refuses whatever no
   live run can describe — including a [Random] pattern — so a corrupt
   descriptor can neither overflow nor stall a walker downstream. *)
let get_descriptor c ~region ~chunk ~pc ~len =
  let warp_size = get_u c in
  let n = get_u c in
  let base = get_z c in
  let bytes = get_u c in
  let accesses = get_u c in
  let write = get_bool c in
  let pattern =
    match get_u c with
    | 0 -> Gpusim.Kernel.Sequential
    | 1 -> Gpusim.Kernel.Strided (get_z c)
    | 2 -> Gpusim.Kernel.Random
    | t -> corrupt "bad descriptor pattern %d" t
  in
  match
    Gpusim.Warp.descriptor ~region ~chunk ~pc ~len ~warp_size ~n
      { Gpusim.Kernel.base; bytes; accesses; write; pattern }
  with
  | Ok b -> b
  | Error msg -> corrupt "%s" msg

(* The v6 columns of a dense batch, after its shape byte. *)
let put_dense it buf (b : Gpusim.Warp.batch) =
  let module W = Gpusim.Warp in
  let len = b.W.b_len and c = W.cols b in
  put_int_col it buf c.W.addrs len;
  put_size_col it buf c.W.sizes len;
  put_int_col it buf c.W.warps len;
  put_int_col it buf c.W.weights len;
  (* Write flags: constant for the whole batch in the common case, else
     one bit per record.  Nonzero flags all map to 1 either way. *)
  let first_write = len > 0 && c.W.writes.{0} <> 0 in
  let all_same = ref true in
  for i = 1 to len - 1 do
    if Bigarray.Array1.unsafe_get c.W.writes i <> 0 <> first_write then
      all_same := false
  done;
  if !all_same then begin
    put_u buf col_const;
    put_bool buf first_write
  end
  else begin
    put_u buf col_raw;
    let nbytes = (len + 7) / 8 in
    let bits = Bytes.make nbytes '\000' in
    for i = 0 to len - 1 do
      if Bigarray.Array1.unsafe_get c.W.writes i <> 0 then
        Bytes.set bits (i / 8)
          (Char.chr (Char.code (Bytes.get bits (i / 8)) lor (1 lsl (i mod 8))))
    done;
    Buffer.add_bytes buf bits
  end

let get_dense ex c ~region ~chunk ~pc ~len =
  let module W = Gpusim.Warp in
  (* Columns decode straight into their final Bigarray storage and the
     batch adopts them zero-copy ([batch_of_columns]): replay hands the
     processor the very buffers the decoder filled. *)
  let addrs = W.alloc_int_col len in
  get_int_col ex c addrs len;
  let sizes = W.alloc_size_col len in
  get_size_col ex c sizes len;
  let warps = W.alloc_int_col len in
  get_int_col ex c warps len;
  let weights = W.alloc_int_col len in
  get_int_col ex c weights len;
  let writes = W.alloc_flag_col len in
  (match get_u c with
  | 3 (* const *) ->
      if len > 0 then Bigarray.Array1.fill writes (if get_bool c then 1 else 0)
      else ignore (get_bool c)
  | 0 (* raw bits *) ->
      let nbytes = (len + 7) / 8 in
      if c.c_pos + nbytes > c.c_limit then corrupt "truncated batch write-bits";
      if len > 0 then Bigarray.Array1.fill writes 0;
      (* byte-outer so the common all-zero (read-only) byte costs one test *)
      for j = 0 to nbytes - 1 do
        let byte = Char.code (String.unsafe_get c.c_s (c.c_pos + j)) in
        if byte <> 0 then
          for k = 0 to 7 do
            let i = (j * 8) + k in
            if i < len && byte land (1 lsl k) <> 0 then
              Bigarray.Array1.unsafe_set writes i 1
          done
      done;
      c.c_pos <- c.c_pos + nbytes
  | n -> corrupt "bad writes tag %d" n);
  W.batch_of_columns ~region ~chunk ~pc ~addrs ~sizes ~warps ~weights ~writes

(* A batch is its header, a shape byte, then the dense columns or the
   descriptor. *)
let put_batch it buf (b : Gpusim.Warp.batch) =
  let module W = Gpusim.Warp in
  put_u buf b.W.b_region;
  put_u buf b.W.b_chunk;
  put_u buf b.W.b_pc;
  put_u buf b.W.b_len;
  match b.W.b_shape with
  | W.Descriptor { spec; warp_size } ->
      Buffer.add_char buf (Char.chr shape_descriptor);
      put_descriptor buf spec ~warp_size
  | W.Dense _ ->
      Buffer.add_char buf (Char.chr shape_dense);
      put_dense it buf b

let get_batch ex c =
  let region = get_u c in
  let chunk = get_u c in
  let pc = get_u c in
  let len = get_u c in
  if len > max_batch_len then corrupt "batch length %d exceeds limit" len;
  match get_byte c with
  | 0 (* dense *) -> get_dense ex c ~region ~chunk ~pc ~len
  | 1 (* descriptor *) -> get_descriptor c ~region ~chunk ~pc ~len
  | n -> corrupt "bad batch shape %d" n

let put_obj buf = function
  | Objmap.Tensor { ptr; bytes; tag } ->
      put_u buf 0;
      put_z buf ptr;
      put_u buf bytes;
      put_str buf tag
  | Objmap.Device_alloc { ptr; bytes; managed } ->
      put_u buf 1;
      put_z buf ptr;
      put_u buf bytes;
      put_bool buf managed
  | Objmap.Unknown addr ->
      put_u buf 2;
      put_z buf addr

let get_obj c =
  match get_u c with
  | 0 ->
      let ptr = get_z c in
      let bytes = get_u c in
      let tag = get_str c in
      Objmap.Tensor { ptr; bytes; tag }
  | 1 ->
      let ptr = get_z c in
      let bytes = get_u c in
      let managed = get_bool c in
      Objmap.Device_alloc { ptr; bytes; managed }
  | 2 -> Objmap.Unknown (get_z c)
  | n -> corrupt "bad object tag %d" n

(* Summary pair lists ([blocks], [regions]) are sorted by their first
   component: first components are stored as zigzag deltas from the
   previous entry, second components relative to their own first.  The
   writer counts maximal runs of a constant (key delta, offset) pair and
   switches to a run-length form when that is smaller; a plain delta form
   remains for irregular data. *)
let pairs_plain = 0

let pairs_rle = 1

let count_pair_runs l =
  let runs = ref 0 and prev = ref 0 and step = ref 0 and b0 = ref 0 in
  let first = ref true in
  List.iter
    (fun (a, b) ->
      let d = a - !prev and r = b - a in
      prev := a;
      if !first || d <> !step || r <> !b0 then begin
        incr runs;
        first := false;
        step := d;
        b0 := r
      end)
    l;
  !runs

let put_pair_list buf l =
  let len = List.length l in
  put_u buf len;
  if len = 0 then ()
  else begin
    let runs = count_pair_runs l in
    (* A run costs one extra varint; worth it when runs are long. *)
    if 3 * runs <= 2 * len then begin
      put_u buf pairs_rle;
      let pending = ref 0 and prev = ref 0 and step = ref 0 and b0 = ref 0 in
      let flush () =
        if !pending > 0 then begin
          put_u buf !pending;
          put_z buf !step;
          put_z buf !b0
        end
      in
      List.iter
        (fun (a, b) ->
          let d = a - !prev and r = b - a in
          prev := a;
          if !pending > 0 && d = !step && r = !b0 then incr pending
          else begin
            flush ();
            pending := 1;
            step := d;
            b0 := r
          end)
        l;
      flush ()
    end
    else begin
      put_u buf pairs_plain;
      let prev = ref 0 in
      List.iter
        (fun (a, b) ->
          put_z buf (a - !prev);
          prev := a;
          put_z buf (b - a))
        l
    end
  end

let get_pair_list c =
  let n = get_u c in
  if n = 0 then []
  else begin
    let prev = ref 0 in
    match get_u c with
    | t when t = pairs_plain ->
        let rec go k acc =
          if k = 0 then List.rev acc
          else begin
            let a = !prev + get_z c in
            prev := a;
            let b = a + get_z c in
            go (k - 1) ((a, b) :: acc)
          end
        in
        go n []
    | t when t = pairs_rle ->
        let acc = ref [] in
        let remaining = ref n in
        while !remaining > 0 do
          let count = get_u c in
          if count = 0 || count > !remaining then corrupt "bad pair run %d" count;
          remaining := !remaining - count;
          let step = get_z c in
          let r = get_z c in
          for _ = 1 to count do
            prev := !prev + step;
            acc := (!prev, !prev + r) :: !acc
          done
        done;
        List.rev !acc
    | t -> corrupt "bad pair-list tag %d" t
  end

let put_summary buf (s : Devagg.summary) =
  put_u buf (List.length s.Devagg.objects);
  List.iter
    (fun (o, w) ->
      put_obj buf o;
      put_z buf w)
    s.Devagg.objects;
  put_pair_list buf s.Devagg.blocks;
  put_pair_list buf s.Devagg.regions;
  put_u buf s.Devagg.sampled_records;
  put_u buf s.Devagg.true_accesses;
  put_u buf s.Devagg.writes;
  put_f buf s.Devagg.est_rate

let get_summary c =
  let nobj = get_u c in
  let objects =
    List.init nobj (fun _ ->
        let o = get_obj c in
        let w = get_z c in
        (o, w))
  in
  let blocks = get_pair_list c in
  let regions = get_pair_list c in
  let sampled_records = get_u c in
  let true_accesses = get_u c in
  let writes = get_u c in
  let est_rate = get_f c in
  {
    Devagg.objects;
    blocks;
    regions;
    sampled_records;
    true_accesses;
    writes;
    est_rate;
  }

let put_region buf (r : Event.region_summary) =
  put_z buf r.Event.base;
  put_u buf r.Event.extent;
  put_u buf r.Event.accesses;
  put_bool buf r.Event.written

let get_region c =
  let base = get_z c in
  let extent = get_u c in
  let accesses = get_u c in
  let written = get_bool c in
  { Event.base; extent; accesses; written }

let put_span buf (s : Event.region_span) =
  put_u buf s.Event.rg_id;
  put_str buf s.Event.rg_label;
  put_u buf s.Event.rg_start_pc;
  put_u buf s.Event.rg_end_pc;
  put_z buf s.Event.rg_mem_region;
  put_f buf s.Event.rg_start_us;
  put_f buf s.Event.rg_time_us;
  put_u buf s.Event.rg_bytes;
  put_f buf s.Event.rg_flops

let get_span c =
  let rg_id = get_u c in
  let rg_label = get_str c in
  let rg_start_pc = get_u c in
  let rg_end_pc = get_u c in
  let rg_mem_region = get_z c in
  let rg_start_us = get_f c in
  let rg_time_us = get_f c in
  let rg_bytes = get_u c in
  let rg_flops = get_f c in
  {
    Event.rg_id;
    rg_label;
    rg_start_pc;
    rg_end_pc;
    rg_mem_region;
    rg_start_us;
    rg_time_us;
    rg_bytes;
    rg_flops;
  }

let put_profile buf (p : Gpusim.Kernel.profile) =
  put_u buf p.Gpusim.Kernel.branches;
  put_u buf p.Gpusim.Kernel.divergent_branches;
  put_u buf p.Gpusim.Kernel.shared_accesses;
  put_u buf p.Gpusim.Kernel.bank_conflicts;
  put_f buf p.Gpusim.Kernel.barrier_stall_us;
  put_f buf p.Gpusim.Kernel.value_min;
  put_f buf p.Gpusim.Kernel.value_max;
  put_u buf p.Gpusim.Kernel.redundant_loads

let get_profile c =
  let branches = get_u c in
  let divergent_branches = get_u c in
  let shared_accesses = get_u c in
  let bank_conflicts = get_u c in
  let barrier_stall_us = get_f c in
  let value_min = get_f c in
  let value_max = get_f c in
  let redundant_loads = get_u c in
  {
    Gpusim.Kernel.branches;
    divergent_branches;
    shared_accesses;
    bank_conflicts;
    barrier_stall_us;
    value_min;
    value_max;
    redundant_loads;
  }

(* ------------------------------------------------------------------ *)
(* Event payloads                                                      *)
(* ------------------------------------------------------------------ *)

let put_payload it buf (p : Event.payload) =
  match p with
  | Event.Driver_call { name; phase } ->
      put_u buf 0;
      put_str buf name;
      put_api_phase buf phase
  | Event.Runtime_call { name; phase } ->
      put_u buf 1;
      put_str buf name;
      put_api_phase buf phase
  | Event.Kernel_launch { info; phase = `Begin } ->
      put_u buf 2;
      put_kernel it buf info;
      put_u buf 0
  | Event.Kernel_launch { info; phase = `End s } ->
      put_u buf 2;
      put_kernel it buf info;
      put_u buf 1;
      put_f buf s.Event.duration_us;
      put_u buf s.Event.true_accesses;
      put_u buf s.Event.faulted_pages
  | Event.Memory_copy { bytes; direction; stream } ->
      put_u buf 3;
      put_u buf bytes;
      (match direction with
      | `H2d -> put_u buf 0
      | `D2h -> put_u buf 1
      | `D2d -> put_u buf 2
      | `P2p d ->
          put_u buf 3;
          put_u buf d);
      put_u buf stream
  | Event.Memory_set { addr; bytes; value } ->
      put_u buf 4;
      put_z buf addr;
      put_u buf bytes;
      put_z buf value
  | Event.Memory_alloc { addr; bytes; managed } ->
      put_u buf 5;
      put_z buf addr;
      put_u buf bytes;
      put_bool buf managed
  | Event.Memory_free { addr; bytes } ->
      put_u buf 6;
      put_z buf addr;
      put_u buf bytes
  | Event.Synchronization { scope } ->
      put_u buf 7;
      (match scope with
      | `Device -> put_u buf 0
      | `Stream s ->
          put_u buf 1;
          put_u buf s)
  | Event.Device_summary { kernel; summary } ->
      put_u buf 10;
      put_kernel it buf kernel;
      put_summary buf summary
  | Event.Shared_access { kernel; access } ->
      put_u buf 11;
      put_kernel it buf kernel;
      put_access buf access
  | Event.Kernel_region { kernel; region } ->
      put_u buf 12;
      put_kernel it buf kernel;
      put_region buf region
  | Event.Barrier { kernel; count } ->
      put_u buf 13;
      put_kernel it buf kernel;
      put_u buf count
  | Event.Kernel_profile { kernel; profile } ->
      put_u buf 14;
      put_kernel it buf kernel;
      put_profile buf profile
  | Event.Operator { name; phase; seq } ->
      put_u buf 15;
      put_str buf name;
      put_api_phase buf phase;
      put_u buf seq
  | Event.Tensor_alloc { ptr; bytes; pool_allocated; pool_reserved; tag } ->
      put_u buf 16;
      put_z buf ptr;
      put_u buf bytes;
      put_u buf pool_allocated;
      put_u buf pool_reserved;
      put_str buf tag
  | Event.Tensor_free { ptr; bytes; pool_allocated; pool_reserved } ->
      put_u buf 17;
      put_z buf ptr;
      put_u buf bytes;
      put_u buf pool_allocated;
      put_u buf pool_reserved
  | Event.Annotation { label; phase } ->
      put_u buf 18;
      put_str buf label;
      put_u buf (match phase with `Start -> 0 | `End -> 1)
  | Event.Tool_quarantined { tool; failures } ->
      put_u buf 19;
      put_str buf tool;
      put_u buf failures
  | Event.Region_enter { kernel; span } ->
      put_u buf 20;
      put_kernel it buf kernel;
      put_span buf span
  | Event.Region_exit { kernel; span } ->
      put_u buf 21;
      put_kernel it buf kernel;
      put_span buf span

let get_payload ex c : Event.payload =
  match get_u c with
  | 0 ->
      let name = get_str c in
      let phase = get_api_phase c in
      Event.Driver_call { name; phase }
  | 1 ->
      let name = get_str c in
      let phase = get_api_phase c in
      Event.Runtime_call { name; phase }
  | 2 -> (
      let info = get_kernel ex c in
      match get_u c with
      | 0 -> Event.Kernel_launch { info; phase = `Begin }
      | 1 ->
          let duration_us = get_f c in
          let true_accesses = get_u c in
          let faulted_pages = get_u c in
          Event.Kernel_launch
            { info; phase = `End { Event.duration_us; true_accesses; faulted_pages } }
      | n -> corrupt "bad launch phase %d" n)
  | 3 ->
      let bytes = get_u c in
      let direction =
        match get_u c with
        | 0 -> `H2d
        | 1 -> `D2h
        | 2 -> `D2d
        | 3 -> `P2p (get_u c)
        | n -> corrupt "bad copy direction %d" n
      in
      let stream = get_u c in
      Event.Memory_copy { bytes; direction; stream }
  | 4 ->
      let addr = get_z c in
      let bytes = get_u c in
      let value = get_z c in
      Event.Memory_set { addr; bytes; value }
  | 5 ->
      let addr = get_z c in
      let bytes = get_u c in
      let managed = get_bool c in
      Event.Memory_alloc { addr; bytes; managed }
  | 6 ->
      let addr = get_z c in
      let bytes = get_u c in
      Event.Memory_free { addr; bytes }
  | 7 ->
      let scope =
        match get_u c with
        | 0 -> `Device
        | 1 -> `Stream (get_u c)
        | n -> corrupt "bad sync scope %d" n
      in
      Event.Synchronization { scope }
  | 10 ->
      let kernel = get_kernel ex c in
      let summary = get_summary c in
      Event.Device_summary { kernel; summary }
  | 11 ->
      let kernel = get_kernel ex c in
      let access = get_access c in
      Event.Shared_access { kernel; access }
  | 12 ->
      let kernel = get_kernel ex c in
      let region = get_region c in
      Event.Kernel_region { kernel; region }
  | 13 ->
      let kernel = get_kernel ex c in
      let count = get_u c in
      Event.Barrier { kernel; count }
  | 14 ->
      let kernel = get_kernel ex c in
      let profile = get_profile c in
      Event.Kernel_profile { kernel; profile }
  | 15 ->
      let name = get_str c in
      let phase = get_api_phase c in
      let seq = get_u c in
      Event.Operator { name; phase; seq }
  | 16 ->
      let ptr = get_z c in
      let bytes = get_u c in
      let pool_allocated = get_u c in
      let pool_reserved = get_u c in
      let tag = get_str c in
      Event.Tensor_alloc { ptr; bytes; pool_allocated; pool_reserved; tag }
  | 17 ->
      let ptr = get_z c in
      let bytes = get_u c in
      let pool_allocated = get_u c in
      let pool_reserved = get_u c in
      Event.Tensor_free { ptr; bytes; pool_allocated; pool_reserved }
  | 18 ->
      let label = get_str c in
      let phase =
        match get_u c with
        | 0 -> `Start
        | 1 -> `End
        | n -> corrupt "bad annotation phase %d" n
      in
      Event.Annotation { label; phase }
  | 19 ->
      let tool = get_str c in
      let failures = get_u c in
      Event.Tool_quarantined { tool; failures }
  | 20 ->
      let kernel = get_kernel ex c in
      let span = get_span c in
      Event.Region_enter { kernel; span }
  | 21 ->
      let kernel = get_kernel ex c in
      let span = get_span c in
      Event.Region_exit { kernel; span }
  | n -> corrupt "unknown payload tag %d" n

(* ------------------------------------------------------------------ *)
(* Submission ops                                                      *)
(* ------------------------------------------------------------------ *)

let put_op it buf ~time_us ?(backend = 0) (op : Processor.sink_op) =
  (match op with
  | Processor.Sk_event _ -> put_u buf 0
  | Processor.Sk_batch _ -> put_u buf 2
  | Processor.Sk_region _ -> put_u buf 3
  | Processor.Sk_flush_summary _ -> put_u buf 4
  | Processor.Sk_flush_parallel _ -> put_u buf 5
  | Processor.Sk_profile _ -> put_u buf 6
  | Processor.Sk_rate _ -> put_u buf 7);
  put_u buf backend;
  put_f buf time_us;
  match op with
  | Processor.Sk_event p -> put_payload it buf p
  | Processor.Sk_batch (k, b) ->
      put_kernel it buf k;
      put_batch it buf b
  | Processor.Sk_region (k, r) ->
      put_kernel it buf k;
      put_region buf r
  | Processor.Sk_flush_summary k | Processor.Sk_flush_parallel k ->
      put_kernel it buf k
  | Processor.Sk_profile (k, p) ->
      put_kernel it buf k;
      put_profile buf p
  | Processor.Sk_rate { sr_rate; sr_grid_id } ->
      put_f buf sr_rate;
      put_u buf sr_grid_id

let get_op ex c =
  let tag = get_u c in
  let backend = get_u c in
  let time_us = get_f c in
  let op =
    match tag with
    | 0 -> Processor.Sk_event (get_payload ex c)
    | 1 ->
        let k = get_kernel ex c in
        let b = get_record c in
        Processor.Sk_batch (k, b)
    | 2 ->
        let k = get_kernel ex c in
        let b = get_batch ex c in
        Processor.Sk_batch (k, b)
    | 3 ->
        let k = get_kernel ex c in
        let r = get_region c in
        Processor.Sk_region (k, r)
    | 4 -> Processor.Sk_flush_summary (get_kernel ex c)
    | 5 -> Processor.Sk_flush_parallel (get_kernel ex c)
    | 6 ->
        let k = get_kernel ex c in
        let p = get_profile c in
        Processor.Sk_profile (k, p)
    | 7 ->
        let sr_rate = get_f c in
        let sr_grid_id = get_u c in
        Processor.Sk_rate { sr_rate; sr_grid_id }
    | n -> corrupt "unknown op tag %d" n
  in
  (time_us, backend, op)

let op_kind_name = function
  | Processor.Sk_event p -> Event.kind_name p
  | Processor.Sk_batch _ -> "access_batch"
  | Processor.Sk_region _ -> "kernel_region"
  | Processor.Sk_flush_summary _ -> "kernel_flush"
  | Processor.Sk_flush_parallel _ -> "parallel_flush"
  | Processor.Sk_profile _ -> "kernel_profile"
  | Processor.Sk_rate _ -> "sample_rate"

let op_records = function
  | Processor.Sk_batch (_, b) -> Gpusim.Warp.batch_len b
  | _ -> 0

(* Standalone payload codec for property tests and ad-hoc tooling: a
   fresh interning context per value, so the encoding is self-contained. *)

let payload_to_string p =
  let buf = Buffer.create 128 in
  put_payload (intern ()) buf p;
  Buffer.contents buf

let op_to_string ~time_us ?(backend = 0) op =
  let buf = Buffer.create 128 in
  put_op (intern ()) buf ~time_us ~backend op;
  Buffer.contents buf

let payload_of_string s =
  let c = cursor s in
  let p = get_payload (extern ()) c in
  if not (at_end c) then corrupt "trailing bytes after payload";
  p

let op_of_string s =
  let c = cursor s in
  let op = get_op (extern ()) c in
  if not (at_end c) then corrupt "trailing bytes after op";
  op

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type backend_entry = { b_id : int; b_device : int; b_label : string }

type writer = {
  w_oc : out_channel;
  w_buf : Buffer.t;
  w_chunk_bytes : int;
  w_intern : intern;
  mutable w_chunk_ops : int;
  mutable w_chunk_decoded : int;  (* batch-column bytes the chunk decodes to *)
  mutable w_chunk_backend : int;
  mutable w_bytes : int;
  mutable w_chunks : int;
  mutable w_closed : bool;
}

let create_writer ?chunk_bytes ?(meta = "") ?(backends = []) ~device path =
  let chunk_bytes =
    match chunk_bytes with Some b when b > 0 -> b | _ -> Config.trace_chunk_bytes ()
  in
  let oc = open_out_bin path in
  let hdr = Buffer.create 64 in
  Buffer.add_string hdr magic;
  Buffer.add_char hdr (Char.chr version);
  put_u hdr device;
  put_str hdr meta;
  put_u hdr (List.length backends);
  List.iter
    (fun b ->
      put_u hdr b.b_id;
      put_u hdr b.b_device;
      put_str hdr b.b_label)
    backends;
  Buffer.output_buffer oc hdr;
  {
    w_oc = oc;
    w_buf = Buffer.create (chunk_bytes + 4096);
    w_chunk_bytes = chunk_bytes;
    w_intern = intern ();
    w_chunk_ops = 0;
    w_chunk_decoded = 0;
    w_chunk_backend = 0;
    w_bytes = Buffer.length hdr;
    w_chunks = 0;
    w_closed = false;
  }

let flush_chunk w =
  if w.w_chunk_ops > 0 then begin
    let payload = Buffer.contents w.w_buf in
    let frame = Buffer.create 16 in
    put_u frame (String.length payload);
    put_u frame w.w_chunk_ops;
    Buffer.add_int32_le frame (Int32.of_int (Pasta_util.Crc32.string payload));
    Buffer.output_buffer w.w_oc frame;
    output_string w.w_oc payload;
    w.w_bytes <- w.w_bytes + Buffer.length frame + String.length payload;
    w.w_chunks <- w.w_chunks + 1;
    Buffer.clear w.w_buf;
    w.w_chunk_ops <- 0;
    w.w_chunk_decoded <- 0;
    reset_intern w.w_intern
  end

let op_batch_bytes = function
  | Processor.Sk_batch (_, b) -> Gpusim.Warp.batch_bytes b
  | _ -> 0

let write_op w ~time_us ?(backend = 0) op =
  if w.w_closed then invalid_arg "Ptrace.write_op: writer is closed";
  (* every chunk is single-backend: switching starts a fresh one, so a
     corrupt chunk can only take down ops of one backend *)
  if w.w_chunk_ops > 0 && backend <> w.w_chunk_backend then flush_chunk w;
  w.w_chunk_backend <- backend;
  put_op w.w_intern w.w_buf ~time_us ~backend op;
  w.w_chunk_ops <- w.w_chunk_ops + 1;
  w.w_chunk_decoded <- w.w_chunk_decoded + op_batch_bytes op;
  (* The reader materializes a whole chunk before applying any of it, so
     the decoded size is bounded as well as the encoded one: dense
     columns compress so well that encoded bytes alone would let one
     chunk hold half a run.  A descriptor decodes in O(1) and adds
     nothing ([Warp.batch_bytes] is 0), so chunks of descriptors follow
     the encoded budget. *)
  if
    Buffer.length w.w_buf >= w.w_chunk_bytes
    || w.w_chunk_decoded >= w.w_chunk_bytes
  then flush_chunk w

let close_writer w =
  if not w.w_closed then begin
    flush_chunk w;
    close_out w.w_oc;
    w.w_closed <- true
  end

let writer_bytes w = w.w_bytes + Buffer.length w.w_buf
let writer_chunks w = w.w_chunks

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type mode = Strict | Tolerant

type header = {
  h_version : int;
  h_device : int;
  h_meta : string;
  h_backends : backend_entry list;
}

type read_stats = {
  mutable r_ops : int;
  mutable r_chunks : int;
  mutable r_chunks_skipped : int;
}

let input_u ic =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = Char.code (input_char ic) in
    if !shift = 56 && b > 0x3f then corrupt "varint out of range";
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !n

(* Bytes of the file not yet read.  Every length field is checked
   against it before anything of that length is allocated, so a corrupt
   length cannot exhaust memory. *)
let input_left ic = in_channel_length ic - pos_in ic

let read_header ic =
  let m = really_input_string ic (String.length magic) in
  if m <> magic then corrupt "bad magic %S (not a .ptrace file)" m;
  let v = Char.code (input_char ic) in
  if v <> version then corrupt "unsupported .ptrace version %d (expected %d)" v version;
  let input_str () =
    let len = input_u ic in
    if len > input_left ic then corrupt "truncated header";
    really_input_string ic len
  in
  let device = input_u ic in
  let meta = input_str () in
  let nbackends = input_u ic in
  let backends =
    List.init nbackends (fun _ ->
        let b_id = input_u ic in
        let b_device = input_u ic in
        let b_label = input_str () in
        { b_id; b_device; b_label })
  in
  { h_version = v; h_device = device; h_meta = meta; h_backends = backends }

let read_header_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> try read_header ic with End_of_file -> corrupt "truncated header")

(* Verify and decode one chunk payload to its ops, in op order.  A chunk
   that fails the CRC, decodes badly or misses its declared op count
   yields [Error] as a unit — none of its ops escape, so a corrupt chunk
   is all-or-nothing for the caller. *)
let decode_chunk ~index ~declared_ops ~expect payload =
  if Pasta_util.Crc32.string payload <> expect then
    Error (Printf.sprintf "chunk %d: CRC mismatch" index)
  else
    match
      let ex = extern () in
      let c = cursor payload in
      let ops = ref [] in
      while not (at_end c) do
        let time_us, backend, op = get_op ex c in
        ops := (time_us, backend, op) :: !ops
      done;
      !ops
    with
    | exception Corrupt msg -> Error (Printf.sprintf "chunk %d: %s" index msg)
    | rev_ops ->
        let decoded_ops = List.length rev_ops in
        if decoded_ops <> declared_ops then
          Error
            (Printf.sprintf
               "chunk %d: framing mismatch (%d ops declared, %d decoded)" index
               declared_ops decoded_ops)
        else Ok (Array.of_list (List.rev rev_ops))

(* Stream the chunks of [path], calling [f] on every op of every intact
   chunk.  Strict mode raises {!Corrupt} on the first CRC mismatch,
   framing violation or truncation; tolerant mode counts the chunk as
   skipped and moves on (a truncated tail ends the file).

   Chunks are self-contained (per-chunk interning), so when a pool is
   supplied they are CRC-checked and decoded in parallel, a bounded
   window at a time; [f] is still applied strictly in chunk order. *)
let read_file_ext ?(mode = Strict) ?pool path ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header =
        try read_header ic
        with End_of_file -> corrupt "truncated header"
      in
      let stats = { r_ops = 0; r_chunks = 0; r_chunks_skipped = 0 } in
      let fail_or_skip msg =
        match mode with
        | Strict -> corrupt "%s" msg
        | Tolerant -> stats.r_chunks_skipped <- stats.r_chunks_skipped + 1
      in
      let chunk_index = ref 0 in
      (* A frame that ends past the end of the file, or whose length
         fields do not decode, is a broken tail: there is no next frame to
         resynchronize on, so tolerant mode skips it and stops. *)
      let next_frame () =
        match input_u ic with
        | exception End_of_file -> `Eof
        | exception Corrupt msg -> `Broken msg
        | payload_len -> (
            match
              let declared_ops = input_u ic in
              let crc_bytes = really_input_string ic 4 in
              (* a payload past the end of the file is a truncated one *)
              if payload_len > input_left ic then raise End_of_file;
              (declared_ops, crc_bytes, really_input_string ic payload_len)
            with
            | exception End_of_file -> `Broken "truncated chunk"
            | exception Corrupt msg -> `Broken msg
            | declared_ops, crc_bytes, payload ->
                let expect =
                  Int32.to_int (String.get_int32_le crc_bytes 0) land 0xFFFFFFFF
                in
                `Chunk (declared_ops, expect, payload))
      in
      let apply = function
        | Ok ops ->
            Array.iter (fun (time_us, backend, op) -> f ~time_us ~backend op) ops;
            stats.r_ops <- stats.r_ops + Array.length ops;
            stats.r_chunks <- stats.r_chunks + 1
        | Error msg -> fail_or_skip msg
      in
      let eof = ref false in
      (match pool with
      | Some p when Pasta_util.Domain_pool.size p > 1 ->
          let window = 4 * Pasta_util.Domain_pool.size p in
          (* a truncated tail is reported only after the intact chunks
             read before it have been applied, as in the serial path *)
          let tail_failure = ref None in
          while not !eof do
            let frames = ref [] and nframes = ref 0 in
            while (not !eof) && !nframes < window do
              match next_frame () with
              | `Eof -> eof := true
              | `Broken msg ->
                  tail_failure := Some msg;
                  eof := true
              | `Chunk (declared_ops, expect, payload) ->
                  frames := (!chunk_index, declared_ops, expect, payload) :: !frames;
                  incr chunk_index;
                  incr nframes
            done;
            let frames = Array.of_list (List.rev !frames) in
            Pasta_util.Domain_pool.map p (Array.length frames) (fun i ->
                let index, declared_ops, expect, payload = frames.(i) in
                decode_chunk ~index ~declared_ops ~expect payload)
            |> Array.iter apply
          done;
          Option.iter fail_or_skip !tail_failure
      | _ ->
          while not !eof do
            match next_frame () with
            | `Eof -> eof := true
            | `Broken msg ->
                fail_or_skip msg;
                eof := true
            | `Chunk (declared_ops, expect, payload) ->
                apply
                  (decode_chunk ~index:!chunk_index ~declared_ops ~expect
                     payload);
                incr chunk_index
          done);
      (header, stats))

let read_file ?mode ?pool path ~f =
  read_file_ext ?mode ?pool path ~f:(fun ~time_us ~backend:_ op ->
      f ~time_us op)
