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

   Every wire type but the batch is described once, as a two-way codec
   (see "Two-way codecs" below) that both writes and reads it, so the two
   directions cannot disagree on a field.  The batch path (columns,
   descriptors) and the op frame stay hand-written: they carry nearly
   every byte of a fine-grained capture.  A chunk may decode to at most
   [chunk_budget] bytes of columns and summary pairs, so a small corrupt
   chunk cannot make the reader allocate without bound.

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
(* Coding contexts                                                     *)
(* ------------------------------------------------------------------ *)

(* Upper bound on a decoded batch: generated batches hold at most
   {!Gpusim.Warp.chunk_records} records, but column compression means a
   tiny payload can declare a huge length, so corrupt data must not be
   able to force absurd allocations. *)
let max_batch_len = 1 lsl 22

(* What one chunk may decode to: dense batch columns and summary pairs,
   charged before they are allocated.  A writer flushes a chunk once its
   columns reach the chunk size, at most 64 MiB (the cap of
   ACCEL_PROF_TRACE_CHUNK_KB), so no chunk it writes decodes to more than
   that plus one batch.  Each run of a pair list decodes its pairs
   without a byte apiece, so pairs need the bound as much as columns. *)
let chunk_budget = (64 lsl 20) + (max_batch_len * Gpusim.Warp.record_bytes)

(* A decoded pair: its two native ints. *)
let pair_bytes = 2 * (Sys.word_size / 8)

(* Per-chunk kernel interning.  The encoder keys on [grid_id] (launch ids
   are unique per device, and every kernel_info of a launch is structurally
   identical); the decoder keeps slots in definition order.  Each context
   also owns the int scratch that batch-column differences go through
   when they are not constant (see [put_col]); it grows on demand and is
   reused by every later batch.  The decoder's context is made afresh
   for each chunk, so it also carries what is left of the chunk's decode
   budget. *)

type intern = {
  by_grid : (int, int) Hashtbl.t;
  mutable next : int;
  mutable enc_diffs : int array;
}

type extern = {
  by_slot : (int, Event.kernel_info) Hashtbl.t;
  mutable count : int;
  mutable dec_diffs : int array;
  mutable budget : int;
}

let intern () = { by_grid = Hashtbl.create 32; next = 0; enc_diffs = [||] }

let extern () =
  { by_slot = Hashtbl.create 32; count = 0; dec_diffs = [||]; budget = chunk_budget }

(* A new chunk starts a new interning scope; the scratch survives. *)
let reset_intern it =
  Hashtbl.reset it.by_grid;
  it.next <- 0

let grow a n = if Array.length a >= n then a else Array.make n 0

(* Charge [n] decoded items of [size] bytes each to the chunk's budget,
   before they are allocated. *)
let charge ex n size =
  if n > ex.budget / size then
    corrupt "chunk decodes to more than %d bytes" chunk_budget;
  ex.budget <- ex.budget - (n * size)

(* ------------------------------------------------------------------ *)
(* Two-way codecs                                                      *)
(* ------------------------------------------------------------------ *)

(* One value describes a wire type in both directions.  Only kernel
   references use the coding contexts; every other codec ignores them. *)
type 'a codec = { put : intern -> Buffer.t -> 'a -> unit; get : extern -> cursor -> 'a }

let uint = { put = (fun _ buf n -> put_u buf n); get = (fun _ c -> get_u c) }
let sint = { put = (fun _ buf n -> put_z buf n); get = (fun _ c -> get_z c) }
let float = { put = (fun _ buf x -> put_f buf x); get = (fun _ c -> get_f c) }
let bool = { put = (fun _ buf b -> put_bool buf b); get = (fun _ c -> get_bool c) }
let string = { put = (fun _ buf s -> put_str buf s); get = (fun _ c -> get_str c) }
let unit = { put = (fun _ _ () -> ()); get = (fun _ _ -> ()) }

(* A varint count, then the elements. *)
let list e =
  {
    put =
      (fun it buf l ->
        put_u buf (List.length l);
        List.iter (e.put it buf) l);
    get = (fun ex c -> List.init (get_u c) (fun _ -> e.get ex c));
  }

(* A record is its fields in wire order, each a codec next to the
   projection that reads it; decoding applies the constructor to the
   fields as they are read. *)
module Fields = struct
  type ('r, 'k) t =
    | [] : ('r, 'r) t
    | ( :: ) : ('a codec * ('r -> 'a)) * ('r, 'k) t -> ('r, 'a -> 'k) t
end

let rec put_fields : type r k. (r, k) Fields.t -> intern -> Buffer.t -> r -> unit =
 fun fields it buf r ->
  match fields with
  | Fields.[] -> ()
  | Fields.((codec, proj) :: rest) ->
      codec.put it buf (proj r);
      put_fields rest it buf r

(* Each application of the constructor to fewer arguments than it takes
   allocates a partial application, so fields are read up to three at a
   time: a record of two or three fields, most of them, applies its
   constructor once. *)
let rec get_fields : type r k. (r, k) Fields.t -> k -> extern -> cursor -> r =
 fun fields k ex c ->
  match fields with
  | Fields.[] -> k
  | Fields.((a, _) :: (b, _) :: (d, _) :: rest) ->
      let x = a.get ex c in
      let y = b.get ex c in
      let z = d.get ex c in
      get_fields rest (k x y z) ex c
  | Fields.((a, _) :: (b, _) :: rest) ->
      let x = a.get ex c in
      let y = b.get ex c in
      get_fields rest (k x y) ex c
  | Fields.((codec, _) :: rest) ->
      let v = codec.get ex c in
      get_fields rest (k v) ex c

let record mk fields =
  {
    put = (fun it buf r -> put_fields fields it buf r);
    get = (fun ex c -> get_fields fields mk ex c);
  }

let tup2 a b = record (fun x y -> (x, y)) Fields.[ (a, fst); (b, snd) ]

let tup3 a b c =
  record (fun x y z -> (x, y, z)) Fields.[
    (a, fun (x, _, _) -> x); (b, fun (_, y, _) -> y); (c, fun (_, _, z) -> z);
  ]

let tup4 a b c d =
  record (fun w x y z -> (w, x, y, z)) Fields.[
    (a, fun (w, _, _, _) -> w); (b, fun (_, x, _, _) -> x);
    (c, fun (_, _, y, _) -> y); (d, fun (_, _, _, z) -> z);
  ]

let tup5 a b c d e =
  record (fun v w x y z -> (v, w, x, y, z)) Fields.[
    (a, fun (v, _, _, _, _) -> v); (b, fun (_, w, _, _, _) -> w);
    (c, fun (_, _, x, _, _) -> x); (d, fun (_, _, _, y, _) -> y);
    (e, fun (_, _, _, _, z) -> z);
  ]

(* A tagged union is a varint tag, then the body of that tag's case.  A
   case projects the values it carries out of the union and injects its
   decoded body back in; the writer takes the first case that projects a
   value, the reader finds a tag's case in an array. *)
type 'a case =
  | Case : { tag : int; body : 'b codec; proj : 'a -> 'b option; inj : 'b -> 'a } -> 'a case

let case tag body proj inj = Case { tag; body; proj; inj }

(* A case that carries nothing but its tag: the constant constructor [v]. *)
let const tag v = case tag unit (fun x -> if x == v then Some () else None) (fun () -> v)

(* Write [v] through its case: [head buf tag] writes what precedes the
   body, the tag first. *)
let rec put_case cases it buf v ~head =
  match cases with
  | [] -> invalid_arg "Ptrace: a value no case projects"
  | Case k :: rest -> (
      match k.proj v with
      | Some b ->
          head buf k.tag;
          k.body.put it buf b
      | None -> put_case rest it buf v ~head)

let by_tag cases =
  let a = Array.make (List.fold_left (fun n (Case k) -> max n (k.tag + 1)) 0 cases) None in
  List.iter (fun (Case k as case) -> a.(k.tag) <- Some case) cases;
  a

let get_case what table ex c tag =
  match if tag < Array.length table then table.(tag) else None with
  | Some (Case k) -> k.inj (k.body.get ex c)
  | None -> corrupt "unknown %s tag %d" what tag

let union what cases =
  let table = by_tag cases in
  {
    put = (fun it buf v -> put_case cases it buf v ~head:put_u);
    get = (fun ex c -> get_case what table ex c (get_u c));
  }

(* ------------------------------------------------------------------ *)
(* Wire types                                                          *)
(* ------------------------------------------------------------------ *)

let api_phase = union "api phase" [ const 0 `Enter; const 1 `Exit ]

let frames =
  list
    (record (fun file line symbol -> { Gpusim.Hostctx.file; line; symbol }) Fields.[
       (string, fun f -> f.Gpusim.Hostctx.file);
       (uint, fun f -> f.Gpusim.Hostctx.line);
       (string, fun f -> f.Gpusim.Hostctx.symbol);
     ])

let dim3 =
  record (fun x y z -> { Gpusim.Dim3.x; y; z }) Fields.[
    (uint, fun d -> d.Gpusim.Dim3.x);
    (uint, fun d -> d.Gpusim.Dim3.y);
    (uint, fun d -> d.Gpusim.Dim3.z);
  ]

let kernel_info =
  record
    (fun device_id grid_id stream name grid block shared_bytes arg_ptrs py_stack
         native_stack ->
      { Event.device_id; grid_id; stream; name; grid; block; shared_bytes; arg_ptrs;
        py_stack; native_stack })
    Fields.[
      (uint, fun k -> k.Event.device_id);
      (uint, fun k -> k.Event.grid_id);
      (uint, fun k -> k.Event.stream);
      (string, fun k -> k.Event.name);
      (dim3, fun k -> k.Event.grid);
      (dim3, fun k -> k.Event.block);
      (uint, fun k -> k.Event.shared_bytes);
      (list sint, fun k -> k.Event.arg_ptrs);
      (frames, fun k -> k.Event.py_stack);
      (frames, fun k -> k.Event.native_stack);
    ]

(* A kernel reference: the first in a chunk writes varint 0 and the
   kernel's description, later ones its slot plus one. *)
let kernel =
  {
    put =
      (fun it buf (k : Event.kernel_info) ->
        match Hashtbl.find_opt it.by_grid k.Event.grid_id with
        | Some slot -> put_u buf (slot + 1)
        | None ->
            Hashtbl.add it.by_grid k.Event.grid_id it.next;
            it.next <- it.next + 1;
            put_u buf 0;
            kernel_info.put it buf k);
    get =
      (fun ex c ->
        match get_u c with
        | 0 ->
            let k = kernel_info.get ex c in
            Hashtbl.replace ex.by_slot ex.count k;
            ex.count <- ex.count + 1;
            k
        | handle -> (
            match Hashtbl.find_opt ex.by_slot (handle - 1) with
            | Some k -> k
            | None -> corrupt "undefined kernel handle %d" (handle - 1)));
  }

let mem_access =
  record (fun addr size write pc warp weight -> { Event.addr; size; write; pc; warp; weight })
    Fields.[
      (sint, fun a -> a.Event.addr);
      (uint, fun a -> a.Event.size);
      (bool, fun a -> a.Event.write);
      (uint, fun a -> a.Event.pc);
      (uint, fun a -> a.Event.warp);
      (uint, fun a -> a.Event.weight);
    ]

let obj =
  union "object"
    [
      case 0 (tup3 sint uint string)
        (function Objmap.Tensor { ptr; bytes; tag } -> Some (ptr, bytes, tag) | _ -> None)
        (fun (ptr, bytes, tag) -> Objmap.Tensor { ptr; bytes; tag });
      case 1 (tup3 sint uint bool)
        (function
          | Objmap.Device_alloc { ptr; bytes; managed } -> Some (ptr, bytes, managed)
          | _ -> None)
        (fun (ptr, bytes, managed) -> Objmap.Device_alloc { ptr; bytes; managed });
      case 2 sint
        (function Objmap.Unknown addr -> Some addr | _ -> None)
        (fun addr -> Objmap.Unknown addr);
    ]

(* Summary pair lists ([blocks], [regions]) are sorted by their first
   component: first components are stored as zigzag deltas from the
   previous entry, second components relative to their own first.  The
   writer cuts a list into maximal runs of one (key delta, offset) pair
   and writes it run by run (tag 1) when that is smaller, else pair by
   pair (tag 0).  The reader charges the declared length to the chunk's
   budget before it builds a pair. *)
let pair_runs l =
  let rec go prev runs = function
    | [] -> List.rev runs
    | (a, b) :: l -> (
        let d = a - prev and r = b - a in
        match runs with
        | (n, d', r') :: runs' when d = d' && r = r' -> go a ((n + 1, d, r) :: runs') l
        | _ -> go a ((1, d, r) :: runs) l)
  in
  go 0 [] l

let put_pair_list buf l =
  let len = List.length l and runs = pair_runs l in
  put_u buf len;
  if len > 0 then begin
    (* A run costs one extra varint; worth it when runs are long. *)
    let by_run = 3 * List.length runs <= 2 * len in
    put_u buf (if by_run then 1 else 0);
    List.iter
      (fun (n, d, r) ->
        if by_run then put_u buf n;
        for _ = 1 to if by_run then 1 else n do
          put_z buf d;
          put_z buf r
        done)
      runs
  end

let get_pair_list ex c =
  let n = get_u c in
  charge ex n pair_bytes;
  if n = 0 then []
  else begin
    let by_run =
      match get_u c with 0 -> false | 1 -> true | t -> corrupt "bad pair-list tag %d" t
    in
    let pairs = ref [] and prev = ref 0 and left = ref n in
    while !left > 0 do
      let run = if by_run then get_u c else 1 in
      if run = 0 || run > !left then corrupt "bad pair run %d" run;
      left := !left - run;
      let d = get_z c in
      let r = get_z c in
      for _ = 1 to run do
        prev := !prev + d;
        pairs := (!prev, !prev + r) :: !pairs
      done
    done;
    List.rev !pairs
  end

let summary =
  record
    (fun objects blocks regions sampled_records true_accesses writes est_rate ->
      { Devagg.objects; blocks; regions; sampled_records; true_accesses; writes; est_rate })
    Fields.[
      (list (tup2 obj sint), fun s -> s.Devagg.objects);
      ({ put = (fun _ -> put_pair_list); get = get_pair_list }, fun s -> s.Devagg.blocks);
      ({ put = (fun _ -> put_pair_list); get = get_pair_list }, fun s -> s.Devagg.regions);
      (uint, fun s -> s.Devagg.sampled_records);
      (uint, fun s -> s.Devagg.true_accesses);
      (uint, fun s -> s.Devagg.writes);
      (float, fun s -> s.Devagg.est_rate);
    ]

let region =
  record (fun base extent accesses written -> { Event.base; extent; accesses; written })
    Fields.[
      (sint, fun r -> r.Event.base);
      (uint, fun r -> r.Event.extent);
      (uint, fun r -> r.Event.accesses);
      (bool, fun r -> r.Event.written);
    ]

let span =
  record
    (fun rg_id rg_label rg_start_pc rg_end_pc rg_mem_region rg_start_us rg_time_us rg_bytes
         rg_flops ->
      { Event.rg_id; rg_label; rg_start_pc; rg_end_pc; rg_mem_region; rg_start_us;
        rg_time_us; rg_bytes; rg_flops })
    Fields.[
      (uint, fun s -> s.Event.rg_id);
      (string, fun s -> s.Event.rg_label);
      (uint, fun s -> s.Event.rg_start_pc);
      (uint, fun s -> s.Event.rg_end_pc);
      (sint, fun s -> s.Event.rg_mem_region);
      (float, fun s -> s.Event.rg_start_us);
      (float, fun s -> s.Event.rg_time_us);
      (uint, fun s -> s.Event.rg_bytes);
      (float, fun s -> s.Event.rg_flops);
    ]

let profile =
  record
    (fun branches divergent_branches shared_accesses bank_conflicts barrier_stall_us value_min
         value_max redundant_loads ->
      { Gpusim.Kernel.branches; divergent_branches; shared_accesses; bank_conflicts;
        barrier_stall_us; value_min; value_max; redundant_loads })
    Fields.[
      (uint, fun p -> p.Gpusim.Kernel.branches);
      (uint, fun p -> p.Gpusim.Kernel.divergent_branches);
      (uint, fun p -> p.Gpusim.Kernel.shared_accesses);
      (uint, fun p -> p.Gpusim.Kernel.bank_conflicts);
      (float, fun p -> p.Gpusim.Kernel.barrier_stall_us);
      (float, fun p -> p.Gpusim.Kernel.value_min);
      (float, fun p -> p.Gpusim.Kernel.value_max);
      (uint, fun p -> p.Gpusim.Kernel.redundant_loads);
    ]

let launch_phase =
  let kernel_end =
    record
      (fun duration_us true_accesses faulted_pages ->
        { Event.duration_us; true_accesses; faulted_pages })
      Fields.[
        (float, fun s -> s.Event.duration_us);
        (uint, fun s -> s.Event.true_accesses);
        (uint, fun s -> s.Event.faulted_pages);
      ]
  in
  union "launch phase"
    [
      const 0 `Begin;
      case 1 kernel_end (function `End s -> Some s | `Begin -> None) (fun s -> `End s);
    ]

let direction =
  union "copy direction"
    [
      const 0 `H2d;
      const 1 `D2h;
      const 2 `D2d;
      case 3 uint (function `P2p d -> Some d | _ -> None) (fun d -> `P2p d);
    ]

let scope =
  union "sync scope"
    [
      const 0 `Device;
      case 1 uint (function `Stream s -> Some s | `Device -> None) (fun s -> `Stream s);
    ]

let annotation_phase = union "annotation phase" [ const 0 `Start; const 1 `End ]

(* Tags follow the constructors' declaration order; 8 and 9 are
   retired. *)
let payload : Event.payload codec =
  let open Event in
  union "payload"
    [
      case 0 (tup2 string api_phase)
        (function Driver_call { name; phase } -> Some (name, phase) | _ -> None)
        (fun (name, phase) -> Driver_call { name; phase });
      case 1 (tup2 string api_phase)
        (function Runtime_call { name; phase } -> Some (name, phase) | _ -> None)
        (fun (name, phase) -> Runtime_call { name; phase });
      case 2 (tup2 kernel launch_phase)
        (function Kernel_launch { info; phase } -> Some (info, phase) | _ -> None)
        (fun (info, phase) -> Kernel_launch { info; phase });
      case 3 (tup3 uint direction uint)
        (function
          | Memory_copy { bytes; direction; stream } -> Some (bytes, direction, stream)
          | _ -> None)
        (fun (bytes, direction, stream) -> Memory_copy { bytes; direction; stream });
      case 4 (tup3 sint uint sint)
        (function Memory_set { addr; bytes; value } -> Some (addr, bytes, value) | _ -> None)
        (fun (addr, bytes, value) -> Memory_set { addr; bytes; value });
      case 5 (tup3 sint uint bool)
        (function
          | Memory_alloc { addr; bytes; managed } -> Some (addr, bytes, managed) | _ -> None)
        (fun (addr, bytes, managed) -> Memory_alloc { addr; bytes; managed });
      case 6 (tup2 sint uint)
        (function Memory_free { addr; bytes } -> Some (addr, bytes) | _ -> None)
        (fun (addr, bytes) -> Memory_free { addr; bytes });
      case 7 scope
        (function Synchronization { scope } -> Some scope | _ -> None)
        (fun scope -> Synchronization { scope });
      case 10 (tup2 kernel summary)
        (function Device_summary { kernel; summary } -> Some (kernel, summary) | _ -> None)
        (fun (kernel, summary) -> Device_summary { kernel; summary });
      case 11 (tup2 kernel mem_access)
        (function Shared_access { kernel; access } -> Some (kernel, access) | _ -> None)
        (fun (kernel, access) -> Shared_access { kernel; access });
      case 12 (tup2 kernel region)
        (function Kernel_region { kernel; region } -> Some (kernel, region) | _ -> None)
        (fun (kernel, region) -> Kernel_region { kernel; region });
      case 13 (tup2 kernel uint)
        (function Barrier { kernel; count } -> Some (kernel, count) | _ -> None)
        (fun (kernel, count) -> Barrier { kernel; count });
      case 14 (tup2 kernel profile)
        (function Kernel_profile { kernel; profile } -> Some (kernel, profile) | _ -> None)
        (fun (kernel, profile) -> Kernel_profile { kernel; profile });
      case 15 (tup3 string api_phase uint)
        (function Operator { name; phase; seq } -> Some (name, phase, seq) | _ -> None)
        (fun (name, phase, seq) -> Operator { name; phase; seq });
      case 16 (tup5 sint uint uint uint string)
        (function
          | Tensor_alloc { ptr; bytes; pool_allocated; pool_reserved; tag } ->
              Some (ptr, bytes, pool_allocated, pool_reserved, tag)
          | _ -> None)
        (fun (ptr, bytes, pool_allocated, pool_reserved, tag) ->
          Tensor_alloc { ptr; bytes; pool_allocated; pool_reserved; tag });
      case 17 (tup4 sint uint uint uint)
        (function
          | Tensor_free { ptr; bytes; pool_allocated; pool_reserved } ->
              Some (ptr, bytes, pool_allocated, pool_reserved)
          | _ -> None)
        (fun (ptr, bytes, pool_allocated, pool_reserved) ->
          Tensor_free { ptr; bytes; pool_allocated; pool_reserved });
      case 18 (tup2 string annotation_phase)
        (function Annotation { label; phase } -> Some (label, phase) | _ -> None)
        (fun (label, phase) -> Annotation { label; phase });
      case 19 (tup2 string uint)
        (function Tool_quarantined { tool; failures } -> Some (tool, failures) | _ -> None)
        (fun (tool, failures) -> Tool_quarantined { tool; failures });
      case 20 (tup2 kernel span)
        (function Region_enter { kernel; span } -> Some (kernel, span) | _ -> None)
        (fun (kernel, span) -> Region_enter { kernel; span });
      case 21 (tup2 kernel span)
        (function Region_exit { kernel; span } -> Some (kernel, span) | _ -> None)
        (fun (kernel, span) -> Region_exit { kernel; span });
    ]

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

(* Op tag 1: one record on its own, as writers of this version wrote it
   while tools could be fed record by record.  It decodes to a one-record
   batch of region 0, chunk 0 and the record's pc, which replays to the
   same per-record callback stream.  A batch stores sizes in 16 bits. *)
let get_record ex c =
  let a = mem_access.get ex c in
  if a.Event.size > 0xffff then corrupt "record size %d exceeds 16 bits" a.Event.size;
  charge ex 1 Gpusim.Warp.record_bytes;
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
  charge ex len W.record_bytes;
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

(* ------------------------------------------------------------------ *)
(* Submission ops                                                      *)
(* ------------------------------------------------------------------ *)

(* An op is a frame — kind tag, backend id, time stamp — then its body.
   Batches (tag 2, and tag 1 for a lone record) take the hand-written
   path; every other kind's body is a case below. *)
let op_bodies =
  [
    case 0 payload
      (function Processor.Sk_event p -> Some p | _ -> None)
      (fun p -> Processor.Sk_event p);
    case 3 (tup2 kernel region)
      (function Processor.Sk_region (k, r) -> Some (k, r) | _ -> None)
      (fun (k, r) -> Processor.Sk_region (k, r));
    case 4 kernel
      (function Processor.Sk_flush_summary k -> Some k | _ -> None)
      (fun k -> Processor.Sk_flush_summary k);
    case 5 kernel
      (function Processor.Sk_flush_parallel k -> Some k | _ -> None)
      (fun k -> Processor.Sk_flush_parallel k);
    case 6 (tup2 kernel profile)
      (function Processor.Sk_profile (k, p) -> Some (k, p) | _ -> None)
      (fun (k, p) -> Processor.Sk_profile (k, p));
    case 7 (tup2 float uint)
      (function
        | Processor.Sk_rate { sr_rate; sr_grid_id } -> Some (sr_rate, sr_grid_id)
        | _ -> None)
      (fun (sr_rate, sr_grid_id) -> Processor.Sk_rate { sr_rate; sr_grid_id });
  ]

let op_table = by_tag op_bodies

let put_frame buf tag ~backend ~time_us =
  put_u buf tag;
  put_u buf backend;
  put_f buf time_us

let put_op it buf ~time_us ~backend (op : Processor.sink_op) =
  match op with
  | Processor.Sk_batch (k, b) ->
      put_frame buf 2 ~backend ~time_us;
      kernel.put it buf k;
      put_batch it buf b
  | op -> put_case op_bodies it buf op ~head:(put_frame ~backend ~time_us)

let get_op ex c =
  let tag = get_u c in
  let backend = get_u c in
  let time_us = get_f c in
  let op =
    match tag with
    | 2 ->
        let k = kernel.get ex c in
        Processor.Sk_batch (k, get_batch ex c)
    | 1 ->
        let k = kernel.get ex c in
        Processor.Sk_batch (k, get_record ex c)
    | tag -> get_case "op" op_table ex c tag
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
  payload.put (intern ()) buf p;
  Buffer.contents buf

let op_to_string ~time_us ?(backend = 0) op =
  let buf = Buffer.create 128 in
  put_op (intern ()) buf ~time_us ~backend op;
  Buffer.contents buf

let payload_of_string s =
  let c = cursor s in
  let p = payload.get (extern ()) c in
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

   Chunks are read a window at a time, CRC-checked and decoded, then
   applied in chunk order.  Chunks are self-contained (per-chunk
   interning), so when a pool is supplied a window holds several chunks
   decoded in parallel; a serial read is a window of one. *)
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
      let window, decode =
        match pool with
        | Some p when Pasta_util.Domain_pool.size p > 1 ->
            (4 * Pasta_util.Domain_pool.size p, Pasta_util.Domain_pool.map p)
        | _ -> (1, Array.init)
      in
      (* a truncated tail is reported only after the intact chunks read
         before it have been applied *)
      let tail_failure = ref None and eof = ref false in
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
        decode (Array.length frames) (fun i ->
            let index, declared_ops, expect, payload = frames.(i) in
            decode_chunk ~index ~declared_ops ~expect payload)
        |> Array.iter apply
      done;
      Option.iter fail_or_skip !tail_failure;
      (header, stats))

let read_file ?mode ?pool path ~f =
  read_file_ext ?mode ?pool path ~f:(fun ~time_us ~backend:_ op ->
      f ~time_us op)
