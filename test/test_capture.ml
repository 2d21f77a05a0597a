(* Trace capture & replay: codec round-trips over the whole payload
   vocabulary, corruption handling (strict vs tolerant), and the
   headline contract — replaying a recorded run produces byte-identical
   tool reports to the live run, at any domain count, with or without
   fault injection. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let ( let* ) x f = QCheck.Gen.( >>= ) x f

(* ------------------------------------------------------------------ *)
(* Payload generators                                                  *)
(* ------------------------------------------------------------------ *)

let g_str = QCheck.Gen.(small_string ~gen:printable)
let g_nat = QCheck.Gen.int_range 0 1_000_000
let g_addr = QCheck.Gen.int_range 0 0x7FFF_FFFF

(* All floats round-trip exactly through their IEEE bits; a rational grid
   just keeps counterexamples readable. *)
let g_f =
  QCheck.Gen.map
    (fun i -> float_of_int i /. 16.0)
    (QCheck.Gen.int_range (-1_000_000_000) 1_000_000_000)

let g_phase = QCheck.Gen.oneofl [ `Enter; `Exit ]

let g_dim3 =
  QCheck.Gen.map3
    (fun x y z -> { Gpusim.Dim3.x; y; z })
    (QCheck.Gen.int_range 1 256)
    (QCheck.Gen.int_range 1 256)
    (QCheck.Gen.int_range 1 64)

let g_frame =
  QCheck.Gen.map3
    (fun file line symbol -> { Gpusim.Hostctx.file; line; symbol })
    g_str g_nat g_str

let g_info =
  let* device_id = QCheck.Gen.int_range 0 7 in
  let* grid_id = g_nat in
  let* stream = QCheck.Gen.int_range 0 15 in
  let* name = g_str in
  let* grid = g_dim3 in
  let* block = g_dim3 in
  let* shared_bytes = QCheck.Gen.int_range 0 65536 in
  let* arg_ptrs = QCheck.Gen.small_list g_addr in
  let* py_stack = QCheck.Gen.small_list g_frame in
  let* native_stack = QCheck.Gen.small_list g_frame in
  QCheck.Gen.return
    {
      Pasta.Event.device_id;
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

let g_access =
  let* addr = g_addr in
  let* size = QCheck.Gen.int_range 1 16 in
  let* write = QCheck.Gen.bool in
  let* pc = g_nat in
  let* warp = QCheck.Gen.int_range 0 2047 in
  let* weight = QCheck.Gen.int_range 1 100_000 in
  QCheck.Gen.return { Pasta.Event.addr; size; write; pc; warp; weight }

(* Batch columns come in the shapes the v6 column codec tells apart: a
   constant, an arithmetic progression (either direction), two-valued
   differences, a few runs, and random values, each within [0, hi]. *)
let g_column ~hi len =
  let open QCheck.Gen in
  let value = int_range 0 hi in
  oneof
    [
      map (Array.make len) value;
      (let* step = int_range (-hi / len) (hi / len) in
       let span = abs step * (len - 1) in
       let* start =
         if step >= 0 then int_range 0 (hi - span) else int_range span hi
       in
       return (Array.init len (fun i -> start + (i * step))));
      (let bound = hi / (2 * len) in
       let* d0 = int_range (-bound) bound in
       let* d1 = int_range (-bound) bound in
       let* picks = array_repeat len bool in
       let a = Array.make len (hi / 2) in
       for i = 1 to len - 1 do
         a.(i) <- (a.(i - 1) + if picks.(i) then d1 else d0)
       done;
       return a);
      (let* cuts = list_size (int_range 1 3) (int_range 1 (max 1 (len - 1))) in
       let* vs = array_repeat 4 value in
       return
         (Array.init len (fun i ->
              vs.(List.length (List.filter (fun c -> c <= i) cuts)))));
      array_repeat len value;
    ]

let g_dense_batch =
  let* len =
    QCheck.Gen.oneof [ QCheck.Gen.int_range 1 3; QCheck.Gen.int_range 1 2048 ]
  in
  let* region = QCheck.Gen.int_range 0 31 in
  let* chunk = QCheck.Gen.int_range 0 255 in
  let* pc = g_nat in
  let* addrs = g_column ~hi:(1 lsl 47) len in
  let* sizes = g_column ~hi:0xFFFF len in
  let* warps = g_column ~hi:(1 lsl 47) len in
  let* weights = g_column ~hi:(1 lsl 47) len in
  let* wbits =
    QCheck.Gen.(
      oneof [ map (Array.make len) bool; array_repeat len bool ])
  in
  let writes =
    Bytes.init len (fun i -> if wbits.(i) then '\001' else '\000')
  in
  QCheck.Gen.return
    (Gpusim.Warp.batch_of_arrays ~region ~chunk ~pc ~addrs ~sizes ~warps
       ~weights ~writes)

(* A descriptor: one chunk of a kernel of closed-form regions. *)
let g_descriptor =
  let g_region =
    let* base = g_addr in
    let* bytes = QCheck.Gen.int_range 0 (1 lsl 30) in
    let* accesses = QCheck.Gen.int_range 1 1_000_000 in
    let* write = QCheck.Gen.bool in
    let* pattern =
      QCheck.Gen.oneof
        [
          QCheck.Gen.return Gpusim.Kernel.Sequential;
          QCheck.Gen.map
            (fun s -> Gpusim.Kernel.Strided s)
            (QCheck.Gen.int_range 0 (1 lsl 20));
        ]
    in
    QCheck.Gen.return (Gpusim.Kernel.region ~write ~pattern ~base ~bytes ~accesses ())
  in
  let* regions = QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) g_region in
  let* cap = QCheck.Gen.int_range 1 20_000 in
  let* warp_size = QCheck.Gen.oneofl [ 32; 64; 128 ] in
  let specs =
    Gpusim.Warp.plan ~max_records_per_region:cap
      (Gpusim.Kernel.make ~name:"desc" ~grid:(Gpusim.Dim3.make 1)
         ~block:(Gpusim.Dim3.make 32) ~regions ())
  in
  let* i = QCheck.Gen.int_bound (Array.length specs - 1) in
  QCheck.Gen.return (Gpusim.Warp.describe ~warp_size specs.(i))

let g_batch = QCheck.Gen.oneof [ g_dense_batch; g_descriptor ]

let g_obj =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map3
        (fun ptr bytes tag -> Pasta.Objmap.Tensor { ptr; bytes; tag })
        g_addr g_nat g_str;
      QCheck.Gen.map3
        (fun ptr bytes managed ->
          Pasta.Objmap.Device_alloc { ptr; bytes; managed })
        g_addr g_nat QCheck.Gen.bool;
      QCheck.Gen.map (fun a -> Pasta.Objmap.Unknown a) g_addr;
    ]

let g_summary =
  let* objects = QCheck.Gen.small_list (QCheck.Gen.pair g_obj g_nat) in
  let* blocks = QCheck.Gen.small_list (QCheck.Gen.pair g_nat g_nat) in
  let* regions = QCheck.Gen.small_list (QCheck.Gen.pair g_nat g_nat) in
  let* sampled_records = g_nat in
  let* true_accesses = g_nat in
  let* writes = g_nat in
  let* est_rate = QCheck.Gen.oneofl [ 1.0; 0.5; 0.25; 0.125 ] in
  QCheck.Gen.return
    {
      Pasta.Devagg.objects;
      blocks;
      regions;
      sampled_records;
      true_accesses;
      writes;
      est_rate;
    }

let g_profile =
  let* branches = g_nat in
  let* divergent_branches = g_nat in
  let* shared_accesses = g_nat in
  let* bank_conflicts = g_nat in
  let* barrier_stall_us = g_f in
  let* value_min = g_f in
  let* value_max = g_f in
  let* redundant_loads = g_nat in
  QCheck.Gen.return
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

let g_region_summary =
  let* base = g_addr in
  let* extent = g_nat in
  let* accesses = g_nat in
  let* written = QCheck.Gen.bool in
  QCheck.Gen.return { Pasta.Event.base; extent; accesses; written }

let g_span =
  let* rg_id = QCheck.Gen.int_range 0 0x3FFF_FFFF in
  let* rg_label = g_str in
  let* rg_start_pc = g_nat in
  let* rg_end_pc = g_nat in
  let* rg_mem_region = QCheck.Gen.int_range (-1) 15 in
  let* rg_start_us = g_f in
  let* rg_time_us = g_f in
  let* rg_bytes = g_nat in
  let* rg_flops = g_f in
  QCheck.Gen.return
    {
      Pasta.Event.rg_id;
      rg_label;
      rg_start_pc;
      rg_end_pc;
      rg_mem_region;
      rg_start_us;
      rg_time_us;
      rg_bytes;
      rg_flops;
    }

let g_direction =
  QCheck.Gen.oneof
    [
      QCheck.Gen.oneofl [ `H2d; `D2h; `D2d ];
      QCheck.Gen.map (fun d -> `P2p d) (QCheck.Gen.int_range 0 7);
    ]

(* One generator per payload constructor, so the round-trip property
   provably covers the whole vocabulary. *)
let payload_gens : (string * Pasta.Event.payload QCheck.Gen.t) list =
  let open Pasta.Event in
  [
    ( "driver_call",
      QCheck.Gen.map2 (fun name phase -> Driver_call { name; phase }) g_str
        g_phase );
    ( "runtime_call",
      QCheck.Gen.map2 (fun name phase -> Runtime_call { name; phase }) g_str
        g_phase );
    ( "kernel_launch_begin",
      QCheck.Gen.map (fun info -> Kernel_launch { info; phase = `Begin }) g_info
    );
    ( "kernel_launch_end",
      let* info = g_info in
      let* duration_us = g_f in
      let* true_accesses = g_nat in
      let* faulted_pages = g_nat in
      QCheck.Gen.return
        (Kernel_launch
           { info; phase = `End { duration_us; true_accesses; faulted_pages } })
    );
    ( "memory_copy",
      QCheck.Gen.map3
        (fun bytes direction stream -> Memory_copy { bytes; direction; stream })
        g_nat g_direction
        (QCheck.Gen.int_range 0 15) );
    ( "memory_set",
      QCheck.Gen.map3
        (fun addr bytes value -> Memory_set { addr; bytes; value })
        g_addr g_nat
        (QCheck.Gen.int_range (-128) 255) );
    ( "memory_alloc",
      QCheck.Gen.map3
        (fun addr bytes managed -> Memory_alloc { addr; bytes; managed })
        g_addr g_nat QCheck.Gen.bool );
    ( "memory_free",
      QCheck.Gen.map2 (fun addr bytes -> Memory_free { addr; bytes }) g_addr
        g_nat );
    ( "synchronization",
      QCheck.Gen.map
        (fun scope -> Synchronization { scope })
        (QCheck.Gen.oneof
           [
             QCheck.Gen.return `Device;
             QCheck.Gen.map (fun s -> `Stream s) (QCheck.Gen.int_range 0 15);
           ]) );
    ( "device_summary",
      QCheck.Gen.map2
        (fun kernel summary -> Device_summary { kernel; summary })
        g_info g_summary );
    ( "shared_access",
      QCheck.Gen.map2
        (fun kernel access -> Shared_access { kernel; access })
        g_info g_access );
    ( "kernel_region",
      QCheck.Gen.map2
        (fun kernel region -> Kernel_region { kernel; region })
        g_info g_region_summary );
    ( "barrier",
      QCheck.Gen.map2 (fun kernel count -> Barrier { kernel; count }) g_info
        g_nat );
    ( "kernel_profile",
      QCheck.Gen.map2
        (fun kernel profile -> Kernel_profile { kernel; profile })
        g_info g_profile );
    ( "operator",
      QCheck.Gen.map3 (fun name phase seq -> Operator { name; phase; seq })
        g_str g_phase g_nat );
    ( "tensor_alloc",
      let* ptr = g_addr in
      let* bytes = g_nat in
      let* pool_allocated = g_nat in
      let* pool_reserved = g_nat in
      let* tag = g_str in
      QCheck.Gen.return
        (Tensor_alloc { ptr; bytes; pool_allocated; pool_reserved; tag }) );
    ( "tensor_free",
      let* ptr = g_addr in
      let* bytes = g_nat in
      let* pool_allocated = g_nat in
      let* pool_reserved = g_nat in
      QCheck.Gen.return
        (Tensor_free { ptr; bytes; pool_allocated; pool_reserved }) );
    ( "annotation",
      QCheck.Gen.map2 (fun label phase -> Annotation { label; phase }) g_str
        (QCheck.Gen.oneofl [ `Start; `End ]) );
    ( "tool_quarantined",
      QCheck.Gen.map2 (fun tool failures -> Tool_quarantined { tool; failures })
        g_str g_nat );
    ( "region_enter",
      QCheck.Gen.map2 (fun kernel span -> Region_enter { kernel; span }) g_info
        g_span );
    ( "region_exit",
      QCheck.Gen.map2 (fun kernel span -> Region_exit { kernel; span }) g_info
        g_span );
  ]

let g_payload = QCheck.Gen.oneof (List.map snd payload_gens)

let prop_roundtrip =
  QCheck.Test.make ~name:"ptrace codec: decode (encode p) = p" ~count:500
    (QCheck.make g_payload ~print:(fun p -> Pasta.Event.kind_name p))
    (fun p ->
      Pasta.Ptrace.payload_of_string (Pasta.Ptrace.payload_to_string p) = p)

(* One op of tag 1, a single [global_access] record, as writers of this
   trace version wrote it while tools could be fed record by record: a
   4-byte store at 0x7f0000001040 by warp 3 at pc 0x90, weight 5, in
   launch 7 of "gemm", at 12.5 us.  It decodes to a one-record batch of
   region 0, chunk 0 and the record's pc. *)
let tag1_op =
  "\x01\x00\x00\x00\x00\x00\x00\x00\x29\x40\x00\x00\x07\x01\x04\x67\x65\x6d\x6d\x04\x01\x01\x80\x01\x01\x01\x00\x01\x80\xc0\x80\x80\x80\xc0\x3f\x00\x00\x80\xc1\x80\x80\x80\xc0\x3f\x04\x01\x90\x01\x03\x05"

let tag1_kernel =
  {
    Pasta.Event.device_id = 0;
    grid_id = 7;
    stream = 1;
    name = "gemm";
    grid = Gpusim.Dim3.make 4;
    block = Gpusim.Dim3.make 128;
    shared_bytes = 0;
    arg_ptrs = [ 0x7f00_0000_1000 ];
    py_stack = [];
    native_stack = [];
  }

let tag1_decoded =
  ( 12.5,
    0,
    Pasta.Processor.Sk_batch
      ( tag1_kernel,
        Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0x90
          ~addrs:[| 0x7f00_0000_1040 |] ~sizes:[| 4 |] ~warps:[| 3 |] ~weights:[| 5 |]
          ~writes:(Bytes.make 1 '\001') ) )

(* An encoded op and what it must decode to: a generated batch op, or
   the tag-1 op above. *)
let g_batch_op =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map2
        (fun kernel batch ->
          let op = Pasta.Processor.Sk_batch (kernel, batch) in
          (Pasta.Ptrace.op_to_string ~time_us:0.0 op, (0.0, 0, op)))
        g_info g_batch;
      QCheck.Gen.return (tag1_op, tag1_decoded);
    ]

let print_batch_op (_, (_, _, op)) =
  match op with
  | Pasta.Processor.Sk_batch (_, b) -> Printf.sprintf "batch of %d" (Gpusim.Warp.batch_len b)
  | op -> Pasta.Ptrace.op_kind_name op

(* A position uniform over any string shorter than 2^30, taken modulo
   its length ([QCheck.Gen.nat] favours the first few bytes). *)
let g_pos = QCheck.Gen.int_bound (1 lsl 30)

(* Every column shape round-trips, and decoding never trusts the bytes:
   the same op with a few bytes overwritten decodes to something or
   raises [Corrupt], and nothing else escapes (a declared length past
   [max_batch_len] is refused before any column is allocated). *)
let prop_batch_columns =
  let g =
    QCheck.Gen.pair g_batch_op
      (QCheck.Gen.list_size (QCheck.Gen.int_range 1 8)
         (QCheck.Gen.pair g_pos (QCheck.Gen.int_range 0 255)))
  in
  QCheck.Test.make
    ~name:"ptrace batch columns round-trip; mutated ones raise only Corrupt"
    ~count:300
    (QCheck.make g ~print:(fun (op, _) -> print_batch_op op))
    (fun ((s, decoded), edits) ->
      let b = Bytes.of_string s in
      List.iter
        (fun (pos, v) -> Bytes.set b (pos mod Bytes.length b) (Char.chr v))
        edits;
      Pasta.Ptrace.op_of_string s = decoded
      &&
      match Pasta.Ptrace.op_of_string (Bytes.to_string b) with
      | _ -> true
      | exception Pasta.Ptrace.Corrupt _ -> true)

(* The common simulated case — addresses, warp ids and every other column
   in arithmetic progression — encodes as first values plus one step per
   column, so the payload does not grow with the batch. *)
let test_progression_batch_size () =
  let info = QCheck.Gen.generate1 ~rand:(Random.State.make [| 7 |]) g_info in
  let encoded n =
    let b =
      Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:64
        ~addrs:(Array.init n (fun i -> 0x7F00_0000_0000 + (4 * i)))
        ~sizes:(Array.make n 4)
        ~warps:(Array.init n (fun i -> i))
        ~weights:(Array.make n 3) ~writes:(Bytes.make n '\000')
    in
    let op = Pasta.Processor.Sk_batch (info, b) in
    let s = Pasta.Ptrace.op_to_string ~time_us:0.0 op in
    check_bool
      (Printf.sprintf "%d-record batch round-trips" n)
      true
      (Pasta.Ptrace.op_of_string s = (0.0, 0, op));
    String.length s
  in
  let small = encoded 2 and large = encoded 1024 in
  check_bool
    (Printf.sprintf "1024 records take %d bytes, 2 records %d" large small)
    true
    (large - small <= 1)

(* One generator per op kind, a batch once per shape, each op stamped
   with a nonzero backend id. *)
let op_gens : (string * (float * int * Pasta.Processor.sink_op) QCheck.Gen.t) list =
  let open Pasta.Processor in
  let op g =
    let* time_us = g_f in
    let* backend = QCheck.Gen.int_range 1 300 in
    let* op = g in
    QCheck.Gen.return (time_us, backend, op)
  in
  let with_kernel f g = op (QCheck.Gen.map2 f g_info g) in
  [
    ("event", op (QCheck.Gen.map (fun p -> Sk_event p) g_payload));
    ("batch_dense", with_kernel (fun k b -> Sk_batch (k, b)) g_dense_batch);
    ("batch_descriptor", with_kernel (fun k b -> Sk_batch (k, b)) g_descriptor);
    ("region", with_kernel (fun k r -> Sk_region (k, r)) g_region_summary);
    ("flush_summary", op (QCheck.Gen.map (fun k -> Sk_flush_summary k) g_info));
    ("flush_parallel", op (QCheck.Gen.map (fun k -> Sk_flush_parallel k) g_info));
    ("profile", with_kernel (fun k p -> Sk_profile (k, p)) g_profile);
    ( "rate",
      op
        (QCheck.Gen.map2
           (fun sr_rate sr_grid_id -> Sk_rate { sr_rate; sr_grid_id })
           g_f g_nat) );
  ]

(* The md5 of the 50 values each generator yields from seed 0x9a5a,
   encoded back to back.  A refactor of the codec must leave every byte
   of every wire type as it was; these cover the kinds the pinned
   captures never hold. *)
let payload_pins =
  [
    ("driver_call", "bf7aa1105b5fb26ff4efb5970b3ad700");
    ("runtime_call", "0c24fbd0d394126d2c31bba7dc1f041c");
    ("kernel_launch_begin", "d7b4268f822345e7a14703c23e651d06");
    ("kernel_launch_end", "4e8800b8c319b2bf3dffc785bc13af7d");
    ("memory_copy", "1b729ab5b710fe293061ba0a9e32a58d");
    ("memory_set", "8912da6d012640271ddd9ff366f2e0fd");
    ("memory_alloc", "a87b205ee44e466765f8116f5e53ad95");
    ("memory_free", "9b2b910504f54892162974b27ee57377");
    ("synchronization", "f99332456fa566c91a0ca91b3c5b328e");
    ("device_summary", "0d177b78dfc19dfa5865cd379ff17c7e");
    ("shared_access", "b1d5195707cd22cfa73e3098fb1283a3");
    ("kernel_region", "75670a8fd9f3ee817c7b9e809c719e7b");
    ("barrier", "7880868e11ffcdcbe1a8c0ec66b3da5a");
    ("kernel_profile", "fee5dc7db285fdf46b31ce50795de24a");
    ("operator", "a8b93280479650f8aad64f6b8cd4af56");
    ("tensor_alloc", "22d6ed0a699d39316a2d8e15ffb2960f");
    ("tensor_free", "73acf478993daf51d6da3de1eceab63a");
    ("annotation", "0e3280f36d712a28b6d5165b4389ee20");
    ("tool_quarantined", "e98ecd60fc7e93bc910448f62f58d373");
    ("region_enter", "543ed3eadfd3b380d5e9dc493e2307d3");
    ("region_exit", "c53184c851fc633885991be2270b40c4");
  ]

let op_pins =
  [
    ("event", "1cd9def18a80469f589c237028dc315b");
    ("batch_dense", "d1e6905b03731a2a106eebaf3b6ad563");
    ("batch_descriptor", "6280372e8176ed195cb70fcdd83817c9");
    ("region", "ee135bd86adea513fa4c911be36421df");
    ("flush_summary", "9c989953d888775eede659bdd571415d");
    ("flush_parallel", "0115ba0fb9970e710a2fc960f0b84387");
    ("profile", "0c115ec25b3dbe179923b3282c13ba95");
    ("rate", "ff777e533d694b66906ba187a1ba529b");
  ]

(* Encode 50 values of [gen] from the fixed seed, check that each
   decodes back, and check the md5 of all their bytes against [pins]. *)
let check_pinned pins (name, gen) ~encode ~decode =
  let rand = Random.State.make [| 0x9a5a |] in
  let bytes = Buffer.create 4096 in
  let values =
    List.init 50 (fun _ ->
        let v = QCheck.Gen.generate1 ~rand gen in
        let s = encode v in
        check_bool (Printf.sprintf "%s round-trips" name) true (decode s = v);
        Buffer.add_string bytes s;
        v)
  in
  Alcotest.(check string)
    (name ^ " bytes pinned")
    (List.assoc name pins)
    (Digest.to_hex (Digest.string (Buffer.contents bytes)));
  values

(* The oneof above samples; this walks every constructor and op kind
   explicitly so a broken branch can't hide behind generator luck. *)
let test_roundtrip_each_constructor () =
  let payloads =
    List.concat_map
      (check_pinned payload_pins ~encode:Pasta.Ptrace.payload_to_string
         ~decode:Pasta.Ptrace.payload_of_string)
      payload_gens
  in
  Alcotest.(check (list string))
    "the generators cover every payload kind"
    (List.sort compare Pasta.Event.all_kinds)
    (List.sort_uniq compare (List.map Pasta.Event.kind_name payloads));
  List.iter
    (fun g ->
      ignore
        (check_pinned op_pins g
           ~encode:(fun (time_us, backend, op) ->
             Pasta.Ptrace.op_to_string ~time_us ~backend op)
           ~decode:Pasta.Ptrace.op_of_string))
    op_gens

(* ------------------------------------------------------------------ *)
(* Corruption and truncation                                           *)
(* ------------------------------------------------------------------ *)

let temp_trace () = Filename.temp_file "pasta_test" ".ptrace"

(* A small multi-chunk trace of synthetic ops. *)
let write_sample ?(ops = 200) ?(chunk_bytes = 512) path =
  let w = Pasta.Ptrace.create_writer ~chunk_bytes ~meta:"test" ~device:0 path in
  for i = 0 to ops - 1 do
    Pasta.Ptrace.write_op w ~time_us:(float_of_int i)
      (Pasta.Processor.Sk_event
         (Pasta.Event.Driver_call
            { name = Printf.sprintf "cuLaunchKernel_%d" i; phase = `Enter }))
  done;
  Pasta.Ptrace.close_writer w;
  Pasta.Ptrace.writer_chunks w

let count_ops ~mode path =
  let n = ref 0 in
  let _, stats = Pasta.Ptrace.read_file ~mode path ~f:(fun ~time_us:_ _ -> incr n) in
  (!n, stats)

let test_roundtrip_file () =
  let path = temp_trace () in
  let chunks = write_sample path in
  check_bool "multiple chunks written" true (chunks > 1);
  let n, stats = count_ops ~mode:Pasta.Ptrace.Strict path in
  check_int "all ops decoded" 200 n;
  check_int "all chunks intact" chunks stats.Pasta.Ptrace.r_chunks;
  check_int "nothing skipped" 0 stats.Pasta.Ptrace.r_chunks_skipped;
  Sys.remove path

(* Rewrite one byte of a file in place ([off] < 0 counts from the end);
   returns the file length. *)
let map_byte path off f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let off = if off < 0 then len + off else off in
  Bytes.set b off (Char.chr (f (Char.code (Bytes.get b off))));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  len

let corrupt_byte path off = map_byte path off (fun c -> c lxor 0xFF)

let test_crc_corruption () =
  let path = temp_trace () in
  let chunks = write_sample path in
  let len = corrupt_byte path (-20) (* inside the last chunk's payload *) in
  check_bool "file long enough to corrupt" true (len > 40);
  (match count_ops ~mode:Pasta.Ptrace.Strict path with
  | exception Pasta.Ptrace.Corrupt msg ->
      check_bool "strict names the CRC" true
        (Astring_contains.contains msg "CRC")
  | _ -> Alcotest.fail "strict mode must raise on a CRC mismatch");
  let n, stats = count_ops ~mode:Pasta.Ptrace.Tolerant path in
  check_int "one chunk skipped" 1 stats.Pasta.Ptrace.r_chunks_skipped;
  check_int "other chunks survive" (chunks - 1) stats.Pasta.Ptrace.r_chunks;
  check_bool "a prefix of ops still decodes" true (n > 0 && n < 200);
  Sys.remove path

let test_truncated_file () =
  let path = temp_trace () in
  let (_ : int) = write_sample path in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = len - 37 in
  let b = Bytes.create keep in
  really_input ic b 0 keep;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match count_ops ~mode:Pasta.Ptrace.Strict path with
  | exception Pasta.Ptrace.Corrupt _ -> ()
  | _ -> Alcotest.fail "strict mode must raise on truncation");
  let n, stats = count_ops ~mode:Pasta.Ptrace.Tolerant path in
  check_int "truncated tail counts as one skipped chunk" 1
    stats.Pasta.Ptrace.r_chunks_skipped;
  check_bool "intact prefix still decodes" true (n > 0);
  Sys.remove path

let test_truncated_header () =
  let path = temp_trace () in
  let oc = open_out_bin path in
  output_string oc "PTR";
  close_out oc;
  (match Pasta.Ptrace.read_header_of_file path with
  | exception Pasta.Ptrace.Corrupt _ -> ()
  | _ -> Alcotest.fail "three bytes are not a header");
  Sys.remove path

let test_bad_payload_string () =
  (match Pasta.Ptrace.payload_of_string "\xff\xff\xff" with
  | exception Pasta.Ptrace.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage must not decode");
  (* Payload tag 8, the retired per-record event, as its encoder wrote it
     (kernel, then record): no writer of this version emitted one, so it
     is an unknown tag. *)
  match
    Pasta.Ptrace.payload_of_string
      ("\x08" ^ String.sub tag1_op 10 (String.length tag1_op - 10))
  with
  | exception Pasta.Ptrace.Corrupt msg ->
      Alcotest.(check string) "tag 8 is unknown" "unknown payload tag 8" msg
  | _ -> Alcotest.fail "payload tag 8 must not decode"

(* Unsigned LEB128, the format's varint, over all 63 bits of [n]. *)
let leb128 n =
  let b = Buffer.create 10 in
  let n = ref n in
  while !n land lnot 0x7F <> 0 do
    Buffer.add_char b (Char.chr (!n land 0x7F lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n);
  Buffer.contents b

(* A varint whose ninth byte sets bit 62 would decode to a negative int.
   Both payloads below once escaped as [Invalid_argument]: a driver-call
   name length (from [String.sub]) and a kernel's argument count (from
   [List.init]). *)
let test_sign_bit_varints () =
  let sign = leb128 (1 lsl 62) in
  check_int "the crafted varint is nine bytes" 9 (String.length sign);
  List.iter
    (fun (what, payload) ->
      match Pasta.Ptrace.payload_of_string payload with
      | exception Pasta.Ptrace.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s decoded" what)
    [
      ("name length", "\000" ^ sign);
      ( "argument count",
        (* kernel launch, new descriptor, ids 0, empty name, 1x1x1 grid
           and block, no shared memory *)
        "\002\000\000\000\000\000\001\001\001\001\001\001\000" ^ sign );
    ]

(* ------------------------------------------------------------------ *)
(* Live vs replay                                                      *)
(* ------------------------------------------------------------------ *)

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One live BERT run under the fine-grained parallel hotness tool with a
   capture riding along; returns the live report and the trace path. *)
let live_run ~domains path =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let hot = Pasta_tools.Hotness.create () in
  let (), result =
    Pasta.Session.run ~sample_cap:256 ~capture:path
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  result

let replay_report path =
  let hot = Pasta_tools.Hotness.create () in
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      path
  in
  (o, Format.asprintf "%t" o.Pasta.Replay.report)

let test_live_vs_replay domains () =
  let path = temp_trace () in
  let result = live_run ~domains path in
  let live = Format.asprintf "%t" result.Pasta.Session.report in
  let health = result.Pasta.Session.health in
  check_bool "capture recorded ops" true
    (health.Pasta.Session.events_recorded > 0);
  check_bool "capture wrote bytes" true (health.Pasta.Session.bytes_written > 0);
  check_bool "capture framed chunks" true (health.Pasta.Session.chunks > 0);
  let o, replayed = replay_report path in
  check_int "replay drove every recorded op"
    health.Pasta.Session.events_recorded o.Pasta.Replay.ops_replayed;
  check_bool "replay report digest equals live" true
    (Digest.string live = Digest.string replayed);
  check_bool "replay report byte-identical to live" true
    (String.equal live replayed);
  Sys.remove path

(* The NVBit-CPU model: records leave the device through the host-flushed
   channel buffer and reach a per-record tool through the ring.  The trace
   must carry them so a replay reproduces the live report exactly. *)
let test_nvbit_live_vs_replay () =
  let path = temp_trace () in
  let mk () =
    Pasta_tools.Memory_charact.tool
      (Pasta_tools.Memory_charact.create
         ~variant:Pasta_tools.Memory_charact.Cpu_nvbit ())
  in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let (), result =
    Pasta.Session.run ~sample_cap:256 ~capture:path ~tool:(mk ()) device
      (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  let live = Format.asprintf "%t" result.Pasta.Session.report in
  let health = result.Pasta.Session.health in
  check_bool "live run saw kernels" true (result.Pasta.Session.kernels > 0);
  let o = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool:(mk ()) path in
  check_int "replay drove every recorded op"
    health.Pasta.Session.events_recorded o.Pasta.Replay.ops_replayed;
  Alcotest.(check string)
    "replayed NVBit report byte-identical to live" live
    (Format.asprintf "%t" o.Pasta.Replay.report);
  Sys.remove path

(* Same recording analyzed twice must agree with itself, and a trace must
   diff as identical to its own copy (chunk layout differences aside, two
   live runs in one process legitimately differ — global operator
   sequence numbers keep counting across sessions). *)
let test_replay_deterministic () =
  let a = temp_trace () and b = temp_trace () in
  let (_ : Pasta.Session.result) = live_run ~domains:2 a in
  let _, ra1 = replay_report a in
  let _, ra2 = replay_report a in
  check_bool "replay is repeatable" true (String.equal ra1 ra2);
  (* byte-copy a -> b *)
  let ic = open_in_bin a in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin b in
  output_string oc body;
  close_out oc;
  (match Pasta.Replay.diff a b with
  | Pasta.Replay.Identical n -> check_bool "diff sees ops" true (n > 0)
  | d ->
      Alcotest.failf "a trace diverged from its own copy: %s"
        (Format.asprintf "%a" Pasta.Replay.pp_divergence d));
  let s = Pasta.Replay.stat a in
  check_bool "stat counts ops" true (s.Pasta.Replay.s_ops > 0);
  check_bool "stat has a kind histogram" true (s.Pasta.Replay.s_kinds <> []);
  check_int "stat skipped nothing" 0 s.Pasta.Replay.s_chunks_skipped;
  Sys.remove a;
  Sys.remove b

let test_stat_diff_on_corrupt () =
  let a = temp_trace () and b = temp_trace () in
  let (_ : Pasta.Session.result) = live_run ~domains:1 a in
  let (_ : Pasta.Session.result) = live_run ~domains:1 b in
  (* Corrupt one file mid-payload: tolerant stat keeps going, and diff
     against the pristine twin reports the divergence instead of dying. *)
  let len = corrupt_byte a (-100) in
  check_bool "trace is non-trivial" true (len > 200);
  let s = Pasta.Replay.stat ~mode:Pasta.Ptrace.Tolerant a in
  check_int "corrupt chunk skipped" 1 s.Pasta.Replay.s_chunks_skipped;
  (match Pasta.Replay.diff ~mode:Pasta.Ptrace.Tolerant a b with
  | Pasta.Replay.Identical _ ->
      Alcotest.fail "a corrupted trace cannot equal its pristine twin"
  | Pasta.Replay.Op_mismatch _ | Pasta.Replay.Length_mismatch _ -> ());
  Sys.remove a;
  Sys.remove b

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let varint_len s off =
  let i = ref off in
  while Char.code s.[!i] land 0x80 <> 0 do
    incr i
  done;
  !i - off + 1

(* [s] with the varint at [off] replaced by the encoding of [n]. *)
let splice_varint s off n =
  let rest = off + varint_len s off in
  String.sub s 0 off ^ leb128 n ^ String.sub s rest (String.length s - rest)

(* Length fields are checked against the bytes left in the file before
   anything is allocated.  On a real capture: a first frame claiming 2^59
   payload bytes is a truncated chunk (strict raises, tolerant skips it
   and stops), and a header meta length past the end of the file or with
   the sign bit set is a truncated header in every reader. *)
let test_length_fields () =
  let path = temp_trace () in
  let (_ : Pasta.Session.result) = live_run ~domains:1 path in
  let pristine = read_all path in
  let hdr = Pasta.Ptrace.read_header_of_file path in
  check_int "solo capture" 0 (List.length hdr.Pasta.Ptrace.h_backends);
  let meta_off = 5 + varint_len pristine 5 (* magic, version, device *) in
  let frame_off =
    meta_off + varint_len pristine meta_off
    + String.length hdr.Pasta.Ptrace.h_meta
    + 1 (* empty backend table *)
  in
  write_all path (splice_varint pristine frame_off (1 lsl 59));
  (match count_ops ~mode:Pasta.Ptrace.Strict path with
  | exception Pasta.Ptrace.Corrupt msg ->
      Alcotest.(check string) "strict names the truncation" "truncated chunk" msg
  | _ -> Alcotest.fail "strict read a frame longer than the file");
  let n, stats = count_ops ~mode:Pasta.Ptrace.Tolerant path in
  check_int "tolerant stops at the broken frame" 0 n;
  check_int "and counts it skipped" 1 stats.Pasta.Ptrace.r_chunks_skipped;
  List.iter
    (fun len ->
      write_all path (splice_varint pristine meta_off len);
      (match Pasta.Ptrace.read_header_of_file path with
      | exception Pasta.Ptrace.Corrupt _ -> ()
      | _ -> Alcotest.failf "header with meta length %#x parsed" len);
      List.iter
        (fun mode ->
          match count_ops ~mode path with
          | exception Pasta.Ptrace.Corrupt _ -> ()
          | _ -> Alcotest.failf "trace with meta length %#x read" len)
        [ Pasta.Ptrace.Strict; Pasta.Ptrace.Tolerant ])
    [ 1 lsl 59; 1 lsl 62 ];
  Sys.remove path

(* Descriptor batch fields, in their v7 order after the batch header
   and shape byte 1.  [pattern] is the tag: 0 sequential, 1 strided
   (followed by [stride]), 2 random. *)
type desc_fields = {
  d_region : int;
  d_chunk : int;
  d_pc : int;
  d_len : int;
  d_warp : int;
  d_n : int;
  d_base : int;
  d_bytes : int;
  d_accesses : int;
  d_write : bool;
  d_pattern : int;
  d_stride : int;
}

let zigzag n = leb128 ((n lsl 1) lxor (n asr 62))

let desc_bytes f =
  String.concat ""
    [
      leb128 f.d_region;
      leb128 f.d_chunk;
      leb128 f.d_pc;
      leb128 f.d_len;
      "\001";
      leb128 f.d_warp;
      leb128 f.d_n;
      zigzag f.d_base;
      leb128 f.d_bytes;
      leb128 f.d_accesses;
      (if f.d_write then "\001" else "\000");
      leb128 f.d_pattern;
      (if f.d_pattern = 1 then zigzag f.d_stride else "");
    ]

(* Chunk 1 of a strided region sampled into 3000 records. *)
let good_desc =
  {
    d_region = 0;
    d_chunk = 1;
    d_pc = 64;
    d_len = 1024;
    d_warp = 32;
    d_n = 3000;
    d_base = 0x7F00_0000_0000;
    d_bytes = 1 lsl 20;
    d_accesses = 5000;
    d_write = false;
    d_pattern = 1;
    d_stride = 256;
  }

(* Descriptor fields the decoder must refuse: each is a field
   combination no live run can describe, or past a bound that keeps the
   walkers' products from overflowing. *)
let bad_descs =
  [
    ("no records", { good_desc with d_n = 0 });
    ("chunk past its records", { good_desc with d_n = 1500 });
    ("length past its chunk", { good_desc with d_len = 1025 });
    ("length above chunk_records", { good_desc with d_chunk = 0; d_len = 2048 });
    ("length short of its chunk", { good_desc with d_len = 1000 });
    ("chunk past the region", { good_desc with d_chunk = 3 });
    ("more records than accesses", { good_desc with d_accesses = 2999 });
    ("pc of another region", { good_desc with d_pc = 96 });
    ("unknown pattern tag", { good_desc with d_pattern = 3 });
    ("random pattern", { good_desc with d_pattern = 2 });
    ("negative base", { good_desc with d_base = -4096 });
    ("base past the bound", { good_desc with d_base = 1 lsl 60 });
    ("extent past the bound", { good_desc with d_bytes = 1 lsl 39 });
    ("stride past the bound", { good_desc with d_stride = 1 lsl 39 });
    ("negative stride", { good_desc with d_stride = -4 });
    ("records past the bound", { good_desc with d_n = 1 lsl 23; d_accesses = 1 lsl 23 });
    ("warp size 0", { good_desc with d_warp = 0 });
    ("warp size past the bound", { good_desc with d_warp = 1025 });
  ]

(* A trace of the encoded [ops], with a valid CRC: the header of an empty
   capture, then one frame around them. *)
let one_chunk_trace path ops =
  let payload = String.concat "" ops in
  let w = Pasta.Ptrace.create_writer ~device:0 path in
  Pasta.Ptrace.close_writer w;
  let crc = Bytes.create 4 in
  Bytes.set_int32_le crc 0 (Int32.of_int (Pasta_util.Crc32.string payload));
  write_all path
    (String.concat ""
       [
         read_all path;
         leb128 (String.length payload);
         leb128 (List.length ops);
         Bytes.to_string crc;
         payload;
       ])

(* A one-op trace whose batch is [f]: an [Sk_batch] op. *)
let descriptor_trace path f =
  let k = QCheck.Gen.generate1 ~rand:(Random.State.make [| 17 |]) g_info in
  let spec =
    (Gpusim.Warp.plan ~max_records_per_region:3000
       (Gpusim.Kernel.make ~name:"desc" ~grid:(Gpusim.Dim3.make 1)
          ~block:(Gpusim.Dim3.make 32)
          ~regions:
            [
              Gpusim.Kernel.region
                ~pattern:(Gpusim.Kernel.Strided good_desc.d_stride)
                ~base:good_desc.d_base ~bytes:good_desc.d_bytes
                ~accesses:good_desc.d_accesses ();
            ]
          ())).(1)
  in
  let op =
    Pasta.Ptrace.op_to_string ~time_us:0.0
      (Pasta.Processor.Sk_batch (k, Gpusim.Warp.describe ~warp_size:32 spec))
  in
  let good = desc_bytes good_desc in
  let prefix = String.length op - String.length good in
  Alcotest.(check string)
    "the writer lays out a descriptor as specified" good
    (String.sub op prefix (String.length good));
  one_chunk_trace path [ String.sub op 0 prefix ^ desc_bytes f ]

(* Corrupt descriptor fields under a valid CRC are typed errors: strict
   mode raises [Corrupt], tolerant mode skips the chunk. *)
let test_corrupt_descriptors () =
  let path = temp_trace () in
  descriptor_trace path good_desc;
  let shapes = ref [] in
  let (_ : Pasta.Ptrace.header * Pasta.Ptrace.read_stats) =
    Pasta.Ptrace.read_file ~mode:Pasta.Ptrace.Strict path ~f:(fun ~time_us:_ op ->
        match op with
        | Pasta.Processor.Sk_batch (_, b) -> shapes := b.Gpusim.Warp.b_shape :: !shapes
        | _ -> Alcotest.fail "the crafted op is a batch")
  in
  (match !shapes with
  | [ Gpusim.Warp.Descriptor _ ] -> ()
  | _ -> Alcotest.fail "the well-formed trace holds one descriptor");
  List.iter
    (fun (what, f) ->
      descriptor_trace path f;
      (match count_ops ~mode:Pasta.Ptrace.Strict path with
      | exception Pasta.Ptrace.Corrupt _ -> ()
      | _ -> Alcotest.failf "strict mode read a descriptor with %s" what);
      let n, stats = count_ops ~mode:Pasta.Ptrace.Tolerant path in
      check_int (what ^ ": tolerant mode reads no op") 0 n;
      check_int (what ^ ": and skips its chunk") 1 stats.Pasta.Ptrace.r_chunks_skipped)
    bad_descs;
  Sys.remove path

(* A kernel defined in place: ids 0, no name, a 1x1x1 grid and block, no
   shared memory, arguments or frames. *)
let new_kernel = "\000\000\000\000\000\001\001\001\001\001\001\000\000\000\000"

(* A [Device_summary] payload whose block list is one run of [n] pairs,
   keys 1 to [n], each counting its own key. *)
let one_run_summary n =
  String.concat ""
    [
      "\010" (* payload tag *);
      new_kernel;
      "\000" (* no objects *);
      leb128 n;
      "\001" (* run-length form *);
      leb128 n;
      zigzag 1;
      zigzag 0;
      "\000" (* no regions *);
      "\000\000\000" (* records, accesses, writes *);
      "\000\000\000\000\000\000\240\063" (* rate 1.0 *);
    ]

(* A pair-list run builds its pairs without reading a byte apiece, so a
   40-byte payload can declare 10^8 of them: the declared length is
   charged to the chunk's decode budget before any pair is built. *)
let test_pair_run_budget () =
  let p = Pasta.Ptrace.payload_of_string (one_run_summary 3) in
  (match p with
  | Pasta.Event.Device_summary { summary; _ } ->
      Alcotest.(check (list (pair int int)))
        "three pairs in one run" [ (1, 1); (2, 2); (3, 3) ] summary.Pasta.Devagg.blocks
  | _ -> Alcotest.fail "the crafted payload is a device summary");
  Alcotest.(check string)
    "the writer lays the run out as crafted" (one_run_summary 3)
    (Pasta.Ptrace.payload_to_string p);
  match Pasta.Ptrace.payload_of_string (one_run_summary 100_000_000) with
  | exception Pasta.Ptrace.Corrupt _ -> ()
  | _ -> Alcotest.fail "10^8 pairs decoded"

(* A dense batch op of [len] records whose columns are all constant
   (first value 0, step 0): a few bytes whatever [len] is. *)
let constant_batch_op ~kernel len =
  String.concat ""
    [
      "\002\000" (* batch op, backend 0 *);
      String.make 8 '\000' (* time 0.0 *);
      kernel;
      "\000\000\000" (* region, chunk, pc *);
      leb128 len;
      "\000" (* dense *);
      String.concat "" (List.init 4 (fun _ -> "\000\003\000"));
      "\003\000" (* write flags: constant false *);
    ]

(* One 3 KB chunk of 100 ops that each declare 2^22 records would
   decode to 11 GB of columns.  Its columns are charged to the chunk's
   budget before they are allocated: the chunk is corruption, and the
   reader allocates at most one batch of it. *)
let test_dense_chunk_budget () =
  let path = temp_trace () in
  let chunk len =
    one_chunk_trace path
      (constant_batch_op ~kernel:new_kernel len
      :: List.init 99 (fun _ -> constant_batch_op ~kernel:"\001" len))
  in
  chunk 4;
  let n, _ = count_ops ~mode:Pasta.Ptrace.Strict path in
  check_int "the chunk reads at 4 records an op" 100 n;
  chunk (1 lsl 22);
  (match count_ops ~mode:Pasta.Ptrace.Strict path with
  | exception Pasta.Ptrace.Corrupt msg ->
      check_bool ("strict names the chunk: " ^ msg) true
        (String.starts_with ~prefix:"chunk 0: " msg)
  | _ -> Alcotest.fail "strict mode read 11 GB of columns");
  Gc.full_major ();
  let n, stats = count_ops ~mode:Pasta.Ptrace.Tolerant path in
  Gc.full_major ();
  Sys.remove path;
  check_int "tolerant mode reads no op" 0 n;
  check_int "and skips the chunk" 1 stats.Pasta.Ptrace.r_chunks_skipped

(* A trace holding tag-1 ops still replays: the two records of one
   launch, each decoded as a one-record batch, reach a per-record tool as
   one [on_access] call each, and nothing else, before the launch ends;
   [trace stat] counts them as batch ops. *)
let test_tag1_replay () =
  check_bool "a tag-1 op decodes to its one-record batch" true
    (Pasta.Ptrace.op_of_string tag1_op = tag1_decoded);
  let launch ~time_us phase =
    Pasta.Ptrace.op_to_string ~time_us
      (Pasta.Processor.Sk_event (Pasta.Event.Kernel_launch { info = tag1_kernel; phase }))
  in
  let path = temp_trace () in
  one_chunk_trace path
    [
      launch ~time_us:10.0 `Begin;
      tag1_op;
      tag1_op;
      launch ~time_us:20.0
        (`End { Pasta.Event.duration_us = 10.0; true_accesses = 10; faulted_pages = 0 });
    ];
  let log = Buffer.create 256 in
  let tool =
    {
      (Pasta.Tool.default ~fine_grained:Pasta.Tool.Cpu_sanitizer "log") with
      Pasta.Tool.on_event =
        (fun ev ->
          Printf.bprintf log "E %s %g\n"
            (Pasta.Event.kind_name ev.Pasta.Event.payload)
            ev.Pasta.Event.time_us);
      on_access =
        (fun info a ->
          Printf.bprintf log "A %d %x %d %b %x %d %d\n" info.Pasta.Event.grid_id
            a.Pasta.Event.addr a.Pasta.Event.size a.Pasta.Event.write a.Pasta.Event.pc
            a.Pasta.Event.warp a.Pasta.Event.weight);
    }
  in
  let (_ : Pasta.Replay.outcome) = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool path in
  let s = Pasta.Replay.stat path in
  Sys.remove path;
  Alcotest.(check string)
    "the per-record callback stream"
    (String.concat ""
       [
         "E kernel_launch 10\n";
         "A 7 7f0000001040 4 true 90 3 5\n";
         "A 7 7f0000001040 4 true 90 3 5\n";
         "E kernel_launch 20\n";
       ])
    (Buffer.contents log);
  check_int "trace stat counts them as batch ops" 2
    (List.assoc "access_batch" s.Pasta.Replay.s_kinds)

(* The reader's mutation property: a small real capture with 1-8 bytes
   overwritten, or cut short, reads as Ok or [Corrupt] in both modes (and
   through the parallel decode window) — never another exception.  The
   capture runs without fault injection, so its closed-form chunks are
   descriptors and the mutations reach descriptor bytes too. *)
let small_capture =
  lazy
    (let path = temp_trace () in
     Pasta.Config.set "ACCEL_PROF_INJECT_FAULTS" "0";
     let (_ : Pasta.Session.result) = live_run ~domains:1 path in
     Pasta.Config.unset "ACCEL_PROF_INJECT_FAULTS";
     let s = read_all path in
     Sys.remove path;
     s)

let test_small_capture_descriptors () =
  let path = temp_trace () in
  write_all path (Lazy.force small_capture);
  let descriptors = ref 0 in
  let (_ : Pasta.Ptrace.header * Pasta.Ptrace.read_stats) =
    Pasta.Ptrace.read_file ~mode:Pasta.Ptrace.Strict path ~f:(fun ~time_us:_ op ->
        match op with
        | Pasta.Processor.Sk_batch (_, { Gpusim.Warp.b_shape = Gpusim.Warp.Descriptor _; _ })
          ->
            incr descriptors
        | _ -> ())
  in
  Sys.remove path;
  check_bool
    (Printf.sprintf "%d descriptor ops to mutate" !descriptors)
    true (!descriptors > 0)

let prop_mutated_capture =
  let g =
    QCheck.Gen.(
      oneof
        [
          map
            (fun l -> `Overwrite l)
            (list_size (int_range 1 8) (pair g_pos (int_range 0 255)));
          map (fun n -> `Truncate n) g_pos;
        ])
  in
  let print = function
    | `Overwrite l ->
        String.concat ", "
          (List.map (fun (pos, v) -> Printf.sprintf "@%d := %d" pos v) l)
    | `Truncate n -> Printf.sprintf "truncate at %d" n
  in
  QCheck.Test.make ~name:"mutated capture reads as Ok or Corrupt" ~count:150
    (QCheck.make g ~print)
    (fun m ->
      let pristine = Lazy.force small_capture in
      let len = String.length pristine in
      let mutated =
        match m with
        | `Overwrite l ->
            let b = Bytes.of_string pristine in
            List.iter (fun (pos, v) -> Bytes.set b (pos mod len) (Char.chr v)) l;
            Bytes.to_string b
        | `Truncate n -> String.sub pristine 0 (n mod len)
      in
      let path = temp_trace () in
      write_all path mutated;
      let pool = Pasta_util.Domain_pool.global ~size:2 in
      let reads =
        [
          (fun () -> ignore (Pasta.Ptrace.read_header_of_file path));
          (fun () -> ignore (count_ops ~mode:Pasta.Ptrace.Strict path));
          (fun () -> ignore (count_ops ~mode:Pasta.Ptrace.Tolerant path));
          (fun () ->
            ignore
              (Pasta.Ptrace.read_file ~mode:Pasta.Ptrace.Tolerant ~pool path
                 ~f:(fun ~time_us:_ _ -> ())));
        ]
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.iter
            (fun read -> try read () with Pasta.Ptrace.Corrupt _ -> ())
            reads;
          true))

(* Chunks are bounded by decoded size too: dense columns compress a
   progression batch to a few bytes, yet the reader materializes a whole
   chunk at once.  With the bound, no chunk decodes to more than
   [chunk_bytes] plus one batch. *)
let test_chunk_decoded_bound () =
  let path = temp_trace () in
  let chunk_bytes = 65536 and n = 1024 in
  let kernel =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 11 |]) g_info
  in
  let batch i =
    Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:i ~pc:64
      ~addrs:(Array.init n (fun j -> 0x7F00_0000_0000 + (4 * ((i * n) + j))))
      ~sizes:(Array.make n 4)
      ~warps:(Array.init n (fun j -> j))
      ~weights:(Array.make n 1) ~writes:(Bytes.make n '\000')
  in
  let w = Pasta.Ptrace.create_writer ~chunk_bytes ~device:0 path in
  let total = ref 0 in
  for i = 0 to 99 do
    let b = batch i in
    total := !total + Gpusim.Warp.batch_bytes b;
    Pasta.Ptrace.write_op w ~time_us:(float_of_int i)
      (Pasta.Processor.Sk_batch (kernel, b))
  done;
  Pasta.Ptrace.close_writer w;
  let one = Gpusim.Warp.batch_bytes (batch 0) in
  let chunks = Pasta.Ptrace.writer_chunks w in
  check_bool
    (Printf.sprintf "%d chunks hold %d decoded bytes" chunks !total)
    true
    (chunks >= !total / (chunk_bytes + one));
  let read = ref 0 in
  let _, stats =
    Pasta.Ptrace.read_file ~mode:Pasta.Ptrace.Strict path ~f:(fun ~time_us op ->
        (match op with
        | Pasta.Processor.Sk_batch (k, b) ->
            check_bool "kernel reads back" true (k = kernel);
            check_bool
              (Printf.sprintf "batch %d reads back" !read)
              true
              (b = batch (int_of_float time_us))
        | _ -> Alcotest.fail "only batches were written");
        incr read)
  in
  check_int "every op reads back" 100 !read;
  check_int "every chunk intact" chunks stats.Pasta.Ptrace.r_chunks;
  Sys.remove path

(* The compatibility rule's gate: a real capture relabelled as v6 (the
   encoding whose batches had no shape byte) is refused with the typed
   error in both modes — tolerant mode skips corrupt chunks, never an
   unknown version. *)
let test_version_gate () =
  check_int "this build writes v7" 7 Pasta.Ptrace.version;
  let path = temp_trace () in
  let (_ : Pasta.Session.result) = live_run ~domains:1 path in
  let (_ : int) =
    map_byte path 4 (* right after the "PTRC" magic *) (fun v ->
        check_int "version byte follows the magic" Pasta.Ptrace.version v;
        6)
  in
  List.iter
    (fun (name, mode) ->
      match count_ops ~mode path with
      | exception Pasta.Ptrace.Corrupt msg ->
          Alcotest.(check string)
            (name ^ " mode refuses v6")
            "unsupported .ptrace version 6 (expected 7)" msg
      | _ -> Alcotest.failf "%s mode read a v6 trace" name)
    [ ("strict", Pasta.Ptrace.Strict); ("tolerant", Pasta.Ptrace.Tolerant) ];
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Mixed-backend capture & replay                                      *)
(* ------------------------------------------------------------------ *)

let mixed_workload ~layers device =
  let ctx = Dlfw.Ctx.create device in
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m;
  Dlfw.Ctx.destroy ctx

let mixed_tool () =
  Pasta_tools.Kernel_freq.tool (Pasta_tools.Kernel_freq.create ())

(* One heterogeneous session (CUDA sanitizer + OpenCL, distinct device
   ids) with a shared capture; each backend runs a different workload
   shape so the two reports cannot coincide by accident.  Returns the
   live per-backend reports in attach order. *)
let mixed_live path =
  let d0 = Gpusim.Device.create ~id:0 Gpusim.Arch.a100 in
  let d1 = Gpusim.Device.create ~id:1 Gpusim.Arch.mi300x in
  let m =
    Pasta.Session.attach_multi ~capture:path
      ~tool:(fun _ _ -> mixed_tool ())
      [ (Pasta.Backend.Sanitizer, d0); (Pasta.Backend.Opencl, d1) ]
  in
  mixed_workload ~layers:2 d0;
  mixed_workload ~layers:1 d1;
  let mr = Pasta.Session.detach_multi m in
  List.map
    (fun (label, r) -> (label, Format.asprintf "%t" r.Pasta.Session.report))
    mr.Pasta.Session.mr_backends

let test_mixed_live_vs_replay () =
  let path = temp_trace () in
  let live = mixed_live path in
  check_int "two backends live" 2 (List.length live);
  check_bool "distinct workloads give distinct reports" true
    (not (String.equal (snd (List.nth live 0)) (snd (List.nth live 1))));
  let hdr = Pasta.Ptrace.read_header_of_file path in
  check_int "header carries the backend table" 2
    (List.length hdr.Pasta.Ptrace.h_backends);
  check_bool "one tool instance refuses a mixed trace" true
    (match Pasta.Replay.run ~tool:(mixed_tool ()) path with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let o =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict
      ~tool:(fun _ -> mixed_tool ())
      path
  in
  check_int "both backends replayed" 2 (List.length o.Pasta.Replay.backends);
  check_int "nothing skipped" 0 o.Pasta.Replay.chunks_skipped;
  check_bool "replay drove ops" true (o.Pasta.Replay.ops_replayed > 0);
  List.iter2
    (fun (label, live_rep) (entry, _, report) ->
      Alcotest.(check string)
        (label ^ ": label round-trips through the trace")
        label entry.Pasta.Ptrace.b_label;
      check_bool
        (label ^ ": replayed report byte-identical to live")
        true
        (String.equal live_rep (Format.asprintf "%t" report)))
    live o.Pasta.Replay.backends;
  Sys.remove path

(* Chunks flush on every backend switch, so each chunk is single-backend
   by construction: corrupting the tail chunk (the OpenCL backend ran
   last) must cost OpenCL ops only — the sanitizer's replayed report
   stays byte-identical to its live report. *)
let test_mixed_corruption_isolated () =
  let path = temp_trace () in
  let live = mixed_live path in
  let pristine = Pasta.Replay.stat path in
  check_bool "backend switch framed multiple chunks" true
    (pristine.Pasta.Replay.s_chunks > 1);
  let len = corrupt_byte path (-20) (* inside the last chunk's payload *) in
  check_bool "trace is non-trivial" true (len > 200);
  (match
     Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict
       ~tool:(fun _ -> mixed_tool ())
       path
   with
  | exception Pasta.Ptrace.Corrupt _ -> ()
  | _ -> Alcotest.fail "strict mixed replay must raise on corruption");
  let o =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Tolerant
      ~tool:(fun _ -> mixed_tool ())
      path
  in
  check_int "exactly one chunk skipped" 1 o.Pasta.Replay.chunks_skipped;
  check_bool "skipped chunk cost ops" true
    (o.Pasta.Replay.ops_replayed < pristine.Pasta.Replay.s_ops);
  let sanitizer_live = snd (List.nth live 0) in
  let entry, _, report = List.nth o.Pasta.Replay.backends 0 in
  Alcotest.(check string)
    "intact backend is the sanitizer" "compute-sanitizer"
    entry.Pasta.Ptrace.b_label;
  check_bool "intact backend's report unharmed" true
    (String.equal sanitizer_live (Format.asprintf "%t" report));
  Sys.remove path

let record_tool label =
  let module M = Pasta_tools.Memory_charact in
  M.tool (M.create ~variant:(if label = "nvbit" then M.Cpu_nvbit else M.Cpu_sanitizer) ())

(* Both record channels in one file: a CS-CPU tool on the Sanitizer
   backend and an NVBit-CPU one on the NVBit backend, their workloads
   interleaved iteration by iteration, so replay's runs of batch ops
   alternate between two processors.  Each backend's replayed report is
   byte-identical to its live one. *)
let test_mixed_batch_runs () =
  let path = temp_trace () in
  let d0 = Gpusim.Device.create ~id:0 Gpusim.Arch.a100 in
  let d1 = Gpusim.Device.create ~id:1 Gpusim.Arch.a100 in
  let m =
    Pasta.Session.attach_multi ~sample_cap:64 ~capture:path
      ~tool:(fun kind _ -> record_tool (Pasta.Backend.kind_to_string kind))
      [ (Pasta.Backend.Sanitizer, d0); (Pasta.Backend.Nvbit, d1) ]
  in
  let c0 = Dlfw.Ctx.create d0 and c1 = Dlfw.Ctx.create d1 in
  let bert ctx = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:1 ~dim:64 ~heads:4 ctx in
  let m0 = bert c0 and m1 = bert c1 in
  for _ = 1 to 2 do
    Dlfw.Model.inference_iter c0 m0;
    Dlfw.Model.inference_iter c1 m1
  done;
  Dlfw.Ctx.destroy c0;
  Dlfw.Ctx.destroy c1;
  let live =
    List.map
      (fun (label, r) -> (label, Format.asprintf "%t" r.Pasta.Session.report))
      (Pasta.Session.detach_multi m).Pasta.Session.mr_backends
  in
  (* The backend of every batch op, with consecutive repeats folded. *)
  let runs = ref [] in
  let _ =
    Pasta.Ptrace.read_file_ext ~mode:Pasta.Ptrace.Strict path
      ~f:(fun ~time_us:_ ~backend op ->
        match (op, !runs) with
        | Pasta.Processor.Sk_batch _, b :: _ when b = backend -> ()
        | Pasta.Processor.Sk_batch _, _ -> runs := backend :: !runs
        | _ -> ())
  in
  check_bool "batch runs of both backends interleave" true (List.length !runs >= 4);
  let o =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict
      ~tool:(fun e -> record_tool e.Pasta.Ptrace.b_label)
      path
  in
  Sys.remove path;
  List.iter2
    (fun (label, live_rep) (entry, _, report) ->
      Alcotest.(check string) (label ^ ": label") label entry.Pasta.Ptrace.b_label;
      Alcotest.(check string)
        (label ^ ": replayed report byte-identical to live")
        live_rep
        (Format.asprintf "%t" report))
    live o.Pasta.Replay.backends

(* The count rule: a one-element backend list is the solo session.  A
   CS-CPU tool with a capture on a fresh A100, run once through
   [Session.attach] and once through [attach_multi] with one Sanitizer
   backend, prints the same report, writes the same .ptrace bytes and
   keeps the same counter series; [Replay.run] and [run_multi] replay
   that trace to the same report.  The workload launches raw kernels: a
   framework operator's sequence number is process-global, so two runs
   through the framework would not write equal traces. *)
let test_one_backend_is_solo () =
  let cs_tool () = Pasta_tools.Memory_charact.(tool (create ~variant:Cpu_sanitizer ())) in
  let workload device =
    let buf = Gpusim.Device.malloc device (1 lsl 20) in
    for i = 0 to 2 do
      ignore
        (Gpusim.Device.launch device
           (Gpusim.Kernel.make ~name:(Printf.sprintf "one_backend_%d" i)
              ~grid:(Gpusim.Dim3.make 16) ~block:(Gpusim.Dim3.make 128)
              ~regions:
                [
                  Gpusim.Kernel.region ~base:buf.Gpusim.Device_mem.base
                    ~bytes:(1 lsl (16 + i)) ~accesses:(2_000 * (i + 1)) ();
                ]
              ()))
    done
  in
  (* [profile path device] attaches, runs the workload and detaches; returns
     the report and the metric registry. *)
  let record profile =
    let path = temp_trace () in
    let report, metrics = profile path (Gpusim.Device.create Gpusim.Arch.a100) in
    let trace = read_all path in
    Sys.remove path;
    (report, trace, Pasta_util.Metric.counter_samples metrics)
  in
  let solo_report, solo_trace, solo_counters =
    record (fun path device ->
        let s = Pasta.Session.attach ~capture:path ~tool:(cs_tool ()) device in
        workload device;
        let r = Pasta.Session.detach s in
        (Format.asprintf "%t" r.Pasta.Session.report, r.Pasta.Session.metrics))
  in
  let listed_report, listed_trace, listed_counters =
    record (fun path device ->
        let s =
          Pasta.Session.attach_multi ~capture:path
            ~tool:(fun _ _ -> cs_tool ())
            [ (Pasta.Backend.Sanitizer, device) ]
        in
        workload device;
        let mr = Pasta.Session.detach_multi s in
        ( Format.asprintf "%t" mr.Pasta.Session.mr_report,
          (snd (List.hd mr.Pasta.Session.mr_backends)).Pasta.Session.metrics ))
  in
  check_bool "the run analyzed records" true
    (Astring_contains.contains solo_report "3 kernels");
  Alcotest.(check string) "same report" solo_report listed_report;
  check_bool "same .ptrace bytes" true (String.equal solo_trace listed_trace);
  check_bool "same counter series" true (solo_counters = listed_counters);
  let path = temp_trace () in
  write_all path solo_trace;
  let solo = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool:(cs_tool ()) path in
  let listed =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict ~tool:(fun _ -> cs_tool ()) path
  in
  Sys.remove path;
  Alcotest.(check string) "replay reproduces the live report" solo_report
    (Format.asprintf "%t" solo.Pasta.Replay.report);
  Alcotest.(check string) "both replays print the same report"
    (Format.asprintf "%t" solo.Pasta.Replay.report)
    (Format.asprintf "%t" listed.Pasta.Replay.report)

(* Adjacent batch ops of one kernel id on two backends are two runs:
   replay must hand each run to its own processor, every record stamped
   with its op's recorded time.  Each backend's tool counts what it got;
   the stamps are read back from a re-recording of the replay, which
   writes each view as its processor re-drove it. *)
let test_replay_runs_split_by_backend () =
  let path = temp_trace () in
  let kernel = QCheck.Gen.generate1 ~rand:(Random.State.make [| 13 |]) g_info in
  let batch n =
    Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:64
      ~addrs:(Array.init n (fun j -> 0x7F00_0000_0000 + (4 * j)))
      ~sizes:(Array.make n 4) ~warps:(Array.make n 0) ~weights:(Array.make n 1)
      ~writes:(Bytes.make n '\000')
  in
  let backends =
    List.map (fun id -> { Pasta.Ptrace.b_id = id; b_device = id; b_label = "" }) [ 0; 1 ]
  in
  let w = Pasta.Ptrace.create_writer ~backends ~device:0 path in
  List.iteri
    (fun i (backend, n) ->
      Pasta.Ptrace.write_op w ~time_us:(float_of_int i) ~backend
        (Pasta.Processor.Sk_batch (kernel, batch n)))
    [ (0, 3); (1, 5); (0, 3); (1, 5); (1, 5) ];
  Pasta.Ptrace.close_writer w;
  let got = Array.make 2 0 and seen = Array.make 2 [] in
  let recorded = temp_trace () in
  let o =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict ~capture:recorded
      ~tool:(fun e ->
        let id = e.Pasta.Ptrace.b_id in
        {
          (Pasta.Tool.default ~fine_grained:Pasta.Tool.Cpu_sanitizer "stamps") with
          Pasta.Tool.on_access = (fun _ _ -> got.(id) <- got.(id) + 1);
        })
      path
  in
  let (_ : Pasta.Ptrace.header * Pasta.Ptrace.read_stats) =
    Pasta.Ptrace.read_file_ext ~mode:Pasta.Ptrace.Strict recorded
      ~f:(fun ~time_us ~backend op ->
        match op with
        | Pasta.Processor.Sk_batch (_, b) ->
            for _ = 1 to Gpusim.Warp.batch_len b do
              seen.(backend) <- int_of_float time_us :: seen.(backend)
            done
        | _ -> Alcotest.fail "the re-recording holds batch ops only")
  in
  let same = Pasta.Replay.diff ~mode:Pasta.Ptrace.Strict path recorded in
  Sys.remove path;
  Sys.remove recorded;
  check_bool "the re-recording is the recorded op stream" true
    (same = Pasta.Replay.Identical 5);
  check_int "every op replayed" 5 o.Pasta.Replay.ops_replayed;
  check_int "backend 0 records delivered" 6 got.(0);
  check_int "backend 1 records delivered" 15 got.(1);
  Alcotest.(check (list int)) "backend 0 records and stamps" [ 0; 0; 0; 2; 2; 2 ]
    (List.rev seen.(0));
  Alcotest.(check (list int))
    "backend 1 records and stamps"
    [ 1; 1; 1; 1; 1; 3; 3; 3; 3; 3; 4; 4; 4; 4; 4 ]
    (List.rev seen.(1))

let suite =
  [
    qtest prop_roundtrip;
    qtest prop_batch_columns;
    Alcotest.test_case "progression batch encodes in constant size" `Quick
      test_progression_batch_size;
    Alcotest.test_case "round-trip per constructor" `Quick
      test_roundtrip_each_constructor;
    Alcotest.test_case "multi-chunk file round-trip" `Quick test_roundtrip_file;
    Alcotest.test_case "CRC corruption: strict fails, tolerant skips" `Quick
      test_crc_corruption;
    Alcotest.test_case "truncation: strict fails, tolerant keeps prefix" `Quick
      test_truncated_file;
    Alcotest.test_case "truncated header" `Quick test_truncated_header;
    Alcotest.test_case "garbage payload string" `Quick test_bad_payload_string;
    Alcotest.test_case "varints reaching the sign bit are corruption" `Quick
      test_sign_bit_varints;
    Alcotest.test_case "live vs replay: byte-identical report (1 domain)"
      `Quick (test_live_vs_replay 1);
    Alcotest.test_case "live vs replay: byte-identical report (4 domains)"
      `Quick (test_live_vs_replay 4);
    Alcotest.test_case "NVBit-CPU live vs replay: byte-identical report" `Quick
      test_nvbit_live_vs_replay;
    Alcotest.test_case "replay determinism + stat/diff round-trip" `Quick
      test_replay_deterministic;
    Alcotest.test_case "stat/diff on a corrupted trace" `Quick
      test_stat_diff_on_corrupt;
    Alcotest.test_case "v6 header refused in strict and tolerant mode" `Quick
      test_version_gate;
    Alcotest.test_case "corrupt length fields are typed errors" `Quick
      test_length_fields;
    Alcotest.test_case "corrupt descriptors are typed errors" `Quick
      test_corrupt_descriptors;
    Alcotest.test_case "a pair run past the decode budget is corruption" `Quick
      test_pair_run_budget;
    Alcotest.test_case "a chunk past the decode budget is corruption" `Quick
      test_dense_chunk_budget;
    Alcotest.test_case "tag-1 record ops decode and replay per record" `Quick
      test_tag1_replay;
    Alcotest.test_case "the mutated capture holds descriptors" `Quick
      test_small_capture_descriptors;
    qtest prop_mutated_capture;
    Alcotest.test_case "chunks bounded by decoded batch bytes" `Quick
      test_chunk_decoded_bound;
    Alcotest.test_case "one backend is the solo session" `Quick
      test_one_backend_is_solo;
    Alcotest.test_case "mixed-backend live vs replay: byte-identical" `Quick
      test_mixed_live_vs_replay;
    Alcotest.test_case "mixed-backend corruption isolated to one backend"
      `Quick test_mixed_corruption_isolated;
    Alcotest.test_case "mixed-backend batch runs replay byte-identically" `Quick
      test_mixed_batch_runs;
    Alcotest.test_case "replay splits batch runs at a backend switch" `Quick
      test_replay_runs_split_by_backend;
  ]
