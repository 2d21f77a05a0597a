(* The domain-parallel preprocessing pipeline: pool semantics, the objmap
   resolve memo, batched delivery, range-filter accounting, and the
   determinism contract — tool output must be byte-identical for any
   domain count, with and without fault injection. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Pool = Pasta_util.Domain_pool

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let pool = Pool.create 4 in
  (* 64 >= 4 * size, so this goes through the pooled path, not the
     sequential cutoff. *)
  let out = Pool.map pool 64 (fun i -> i * i) in
  Pool.shutdown pool;
  check_int "length" 64 (Array.length out);
  Array.iteri (fun i v -> check_int "index order" (i * i) v) out

let test_pool_size_one_inline () =
  let pool = Pool.create 1 in
  let seen = ref [] in
  Pool.run pool 8 (fun i -> seen := i :: !seen);
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "size-1 pool runs inline, in index order"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !seen)

let test_pool_small_job_inline () =
  let pool = Pool.create 4 in
  (* Below the cutoff (n < 4 * size) the caller runs everything itself,
     so even with workers parked the order is sequential. *)
  let seen = ref [] in
  Pool.run pool 8 (fun i -> seen := i :: !seen);
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "small jobs run inline" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !seen)

let test_pool_reuse () =
  let pool = Pool.create 3 in
  let a = Pool.map pool 24 (fun i -> i + 1) in
  let b = Pool.map pool 24 (fun i -> i * 2) in
  Pool.shutdown pool;
  check_int "first job" (24 * 25 / 2) (Array.fold_left ( + ) 0 a);
  check_int "second job on the same pool" (24 * 23) (Array.fold_left ( + ) 0 b)

let test_pool_exception () =
  let pool = Pool.create 2 in
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      Pool.run pool 32 (fun i -> if i = 17 then failwith "boom"));
  (* The failed job drains fully; the pool stays usable. *)
  let out = Pool.map pool 16 (fun i -> i) in
  Pool.shutdown pool;
  check_int "pool survives a raising job" 15 out.(15)

(* ------------------------------------------------------------------ *)
(* Objmap resolve memo                                                 *)
(* ------------------------------------------------------------------ *)

let test_objmap_memo () =
  let m = Pasta.Objmap.create () in
  Pasta.Objmap.on_alloc m ~addr:0x1000 ~bytes:4096 ~managed:false;
  let h0, m0 = Pasta.Objmap.memo_stats m in
  check_int "no hits before any resolve" 0 h0;
  ignore (Pasta.Objmap.resolve m 0x1000);
  ignore (Pasta.Objmap.resolve m 0x1800);
  ignore (Pasta.Objmap.resolve m 0x1fff);
  let h, ms = Pasta.Objmap.memo_stats m in
  check_int "sequential lookups hit the memo" 2 h;
  check_int "first lookup misses" (m0 + 1) ms;
  (* A registry mutation must invalidate the memo: the same address now
     resolves to the tensor covering it, not the stale allocation. *)
  Pasta.Objmap.on_tensor_alloc m ~ptr:0x1000 ~bytes:4096 ~tag:"t";
  (match Pasta.Objmap.resolve m 0x1200 with
  | Pasta.Objmap.Tensor _ -> ()
  | o -> Alcotest.failf "memo not invalidated: got %s" (Pasta.Objmap.obj_label o));
  let _, ms' = Pasta.Objmap.memo_stats m in
  check_bool "post-mutation lookup was a miss" true (ms' > ms)

let test_processor_memo_counters () =
  let p = Pasta.Processor.create ~device:0 () in
  let m = Pasta.Processor.objmap p in
  Pasta.Objmap.on_alloc m ~addr:0x1000 ~bytes:4096 ~managed:false;
  ignore (Pasta.Objmap.resolve m 0x1000);
  ignore (Pasta.Objmap.resolve m 0x1004);
  Pasta.Processor.sync_objmap_metrics p;
  check_int "hits surfaced in processor metrics" 1
    (Proc_counter.get p "pasta_objmap_memo_hits");
  check_int "misses surfaced in processor metrics" 1
    (Proc_counter.get p "pasta_objmap_memo_misses")

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts                                    *)
(* ------------------------------------------------------------------ *)

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One BERT-inference run under the fine-grained parallel hotness tool at
   the given domain count; returns everything a divergence could show in. *)
let fine_run ?fault_seed domains =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let hot = Pasta_tools.Hotness.create () in
  let faults = Option.map (fun seed -> Gpusim.Faults.create ~seed ()) fault_seed in
  let (), result =
    Pasta.Session.run ?faults ~sample_cap:256
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  ( result.Pasta.Session.events_seen,
    result.Pasta.Session.health.Pasta.Session.batches_delivered,
    Format.asprintf "%t" result.Pasta.Session.report )

let check_identical runs =
  match runs with
  | [] -> ()
  | (d0, (e0, b0, r0)) :: rest ->
      List.iter
        (fun (d, (e, b, r)) ->
          let label what = Printf.sprintf "%s: %d vs %d domains" what d0 d in
          check_int (label "events seen") e0 e;
          check_int (label "batches delivered") b0 b;
          check_bool (label "report byte-identical") true (String.equal r0 r))
        rest

let test_determinism_across_domains () =
  check_identical (List.map (fun d -> (d, fine_run d)) [ 1; 2; 8 ])

let test_determinism_under_faults () =
  (* Same pinned injector seed at every domain count: the fault pattern is
     part of the input, so the output must still not depend on domains. *)
  check_identical
    (List.map (fun d -> (d, fine_run ~fault_seed:24285L d)) [ 1; 2; 8 ])

(* ------------------------------------------------------------------ *)
(* Columnar delivery vs the per-record stream                          *)
(* ------------------------------------------------------------------ *)

(* A record probe: its tool, and a reader of what the tool saw, in
   delivery order: the records, their weight sum, an ordered checksum of
   their addresses, and how many fine-grained events reached [on_event].
   A host analysis is sent no fine-grained event, so any such event is a
   record delivered a second time.  A per-record probe takes [on_access];
   a columns probe takes packed batches. *)
let record_probe ~fine ~columns =
  let records = ref 0 and weight = ref 0 and addr_hash = ref 0 and fine_events = ref 0 in
  let add addr w =
    incr records;
    weight := !weight + w;
    addr_hash := (!addr_hash * 31) + addr
  in
  let base =
    {
      (Pasta.Tool.default ~fine_grained:fine "probe") with
      Pasta.Tool.on_event =
        (fun ev -> if Pasta.Event.is_fine_grained ev.Pasta.Event.payload then incr fine_events);
    }
  in
  let tool =
    if columns then
      {
        base with
        Pasta.Tool.on_access_columns =
          Some
            (fun _ b ->
              let module W = Gpusim.Warp in
              let c = W.cols b in
              for i = 0 to b.W.b_len - 1 do
                add c.W.addrs.{i} c.W.weights.{i}
              done);
      }
    else { base with Pasta.Tool.on_access = (fun _ a -> add a.Pasta.Event.addr a.Pasta.Event.weight) }
  in
  (tool, fun () -> (!records, !weight, !addr_hash, !fine_events))

(* One BERT inference under a record probe at sample cap [cap]. *)
let record_run ?range ?capture ?(fine = Pasta.Tool.Cpu_sanitizer) ?(cap = 64) ~columns () =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let tool, seen = record_probe ~fine ~columns in
  let (), result =
    Pasta.Session.run ?range ?capture ~sample_cap:cap ~tool device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  (seen (), result.Pasta.Session.health)

(* Every record reaches a tool exactly once, through [on_access] or
   [on_access_columns]: a per-record CS-CPU tool, a columns CS-CPU tool,
   a per-record NVBit-CPU tool and a strict replay of the per-record
   run's capture see the same records, weights and address order, and
   none of them is sent a record as an event. *)
let test_columns_vs_per_record_equivalence () =
  List.iter
    (fun cap ->
      let label what = Printf.sprintf "cap %d: %s" cap what in
      let path = Filename.temp_file "pasta_test" ".ptrace" in
      let per_record, h0 = record_run ~capture:path ~cap ~columns:false () in
      let columns, h1 = record_run ~cap ~columns:true () in
      let nvbit, _ = record_run ~fine:Pasta.Tool.Cpu_nvbit ~cap ~columns:false () in
      let replayed =
        let tool, seen = record_probe ~fine:Pasta.Tool.Cpu_sanitizer ~columns:false in
        let (_ : Pasta.Replay.outcome) = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool path in
        Sys.remove path;
        seen ()
      in
      let r0, w0, s0, _ = per_record in
      check_bool (label "records flowed") true (r0 > 0);
      List.iter
        (fun (who, (r, w, s, fine_events)) ->
          check_int (label (who ^ ": record count")) r0 r;
          check_int (label (who ^ ": weight sum")) w0 w;
          check_int (label (who ^ ": ordered address checksum")) s0 s;
          check_int (label (who ^ ": no record reaches on_event")) 0 fine_events)
        [
          ("per-record CS-CPU", per_record);
          ("columns CS-CPU", columns);
          ("per-record NVBit-CPU", nvbit);
          ("strict replay of the CS-CPU capture", replayed);
        ];
      check_bool (label "columns tool sees packed batches") true
        (h1.Pasta.Session.batches_delivered > 0);
      (* [batches_delivered] counts columnar deliveries only. *)
      check_int (label "per-record tools count none") 0 h0.Pasta.Session.batches_delivered)
    [ 64; 1024 ]

(* ------------------------------------------------------------------ *)
(* Merged summary invariants                                           *)
(* ------------------------------------------------------------------ *)

(* Every live summary must pass the structural check fleet merge nodes
   apply: objects, blocks and regions are three tallies of the same
   records, each summing to the total, and every list is sorted with
   positive counts.  Sharding and merging must not lose or double-count
   at any domain count. *)
let test_summary_validates domains () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let summaries = ref 0 and errors = ref [] in
  let tool =
    {
      (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_parallel "sums") with
      Pasta.Tool.on_device_summary =
        (fun info s ->
          incr summaries;
          let fail msg = errors := (info.Pasta.Event.name ^ ": " ^ msg) :: !errors in
          (match Pasta.Devagg.validate s with Ok () -> () | Error e -> fail e);
          if s.Pasta.Devagg.sampled_records > s.Pasta.Devagg.true_accesses then
            fail "more records than accesses");
    }
  in
  let (), _ = Pasta.Session.run ~sample_cap:128 ~tool device (bert_inference ctx) in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  check_bool "summaries flowed" true (!summaries > 0);
  Alcotest.(check (list string)) "invariant violations" [] (List.rev !errors)

(* ------------------------------------------------------------------ *)
(* Range-filter accounting                                             *)
(* ------------------------------------------------------------------ *)

let test_filtered_accounting () =
  let (all, _, _, _), h_all = record_run ~columns:false () in
  let (part, _, _, _), h =
    record_run ~range:(Pasta.Range.create ~start_grid:8 ()) ~columns:false ()
  in
  check_int "unfiltered run filters nothing" 0 h_all.Pasta.Session.accesses_filtered;
  check_int "lossless policy: no drops" 0 h.Pasta.Session.records_dropped;
  check_bool "early kernels were filtered" true
    (h.Pasta.Session.accesses_filtered > 0);
  (* Filtering withholds, it doesn't lose: delivered + filtered must equal
     what an unfiltered run delivers. *)
  check_int "delivered + filtered = total" all
    (part + h.Pasta.Session.accesses_filtered)

(* ------------------------------------------------------------------ *)
(* The NVBit-CPU record path                                           *)
(* ------------------------------------------------------------------ *)

(* Everything a Cpu_nvbit tool can observe, as text: every dispatched
   event's kind and timestamp bits, every record's fields in delivery
   order, and the final simulated clock.  The digest below pins it, so a
   change to how records travel from the NVBit channel buffer to the tool
   cannot reorder, re-time, drop or re-charge any of them unnoticed.  The
   run's ring accounting comes back with it: records dropped, the
   buffered peak and producer stalls.  Records reach [on_access] only, so
   the log's [E] lines are the coarse events; the digests are those of
   the logs taken when each record also reached [on_event], with those
   per-record [E] lines removed. *)
let nvbit_callback_log ?buffer_cap ?policy () =
  Option.iter
    (fun n -> Pasta.Config.set "ACCEL_PROF_BUFFER_CAP" (string_of_int n))
    buffer_cap;
  Option.iter (Pasta.Config.set "ACCEL_PROF_OVERFLOW_POLICY") policy;
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let log = Buffer.create (1 lsl 20) in
  let tool =
    {
      (Pasta.Tool.default ~fine_grained:Pasta.Tool.Cpu_nvbit "nvbit-log") with
      Pasta.Tool.on_event =
        (fun ev ->
          Printf.bprintf log "E %s %h\n"
            (Pasta.Event.kind_name ev.Pasta.Event.payload)
            ev.Pasta.Event.time_us);
      on_access =
        (fun info a ->
          Printf.bprintf log "A %d %x %d %b %d %x %d\n" info.Pasta.Event.grid_id
            a.Pasta.Event.addr a.Pasta.Event.size a.Pasta.Event.write
            a.Pasta.Event.warp a.Pasta.Event.pc a.Pasta.Event.weight);
    }
  in
  let (), r =
    Pasta.Session.run ~sample_cap:64 ~tool device (fun () ->
        let m = Dlfw.Runner.build ctx "BERT" in
        Dlfw.Runner.run ctx m ~mode:Dlfw.Runner.Inference ~iters:1)
  in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_BUFFER_CAP";
  Pasta.Config.unset "ACCEL_PROF_OVERFLOW_POLICY";
  Printf.bprintf log "T %h\n" (Gpusim.Device.now_us device);
  let h = r.Pasta.Session.health in
  ( Buffer.contents log,
    Printf.sprintf "dropped=%d peak=%d stalls=%d" h.Pasta.Session.records_dropped
      h.Pasta.Session.records_buffered_peak h.Pasta.Session.buffer_stalls )

let test_nvbit_callback_digest () =
  let pinned = "5066166ca2f87e3d7f432533c15d5408" in
  let log, acct = nvbit_callback_log () in
  check_bool "records reached the tool" true
    (Astring_contains.contains log "\nA ");
  Alcotest.(check string)
    "NVBit-CPU callback stream digest" pinned
    (Digest.to_hex (Digest.string log));
  Alcotest.(check string) "ring accounting" "dropped=0 peak=256 stalls=0" acct;
  (* A tiny ring under the lossless block policy stalls the producer over
     and over; the tool must still see the identical stream.  Under the
     lossy policies an 8-item ring drops whole views, one ring item per
     flushed piece.  Each stream, and how its drops, peak and stalls are
     counted, is pinned per policy. *)
  List.iter
    (fun (cap, policy, digest, accounting) ->
      let log, acct = nvbit_callback_log ~buffer_cap:cap ~policy () in
      let ring = Printf.sprintf "%s, %d-item ring" policy cap in
      Alcotest.(check string) (ring ^ ": stream") digest (Digest.to_hex (Digest.string log));
      Alcotest.(check string) (ring ^ ": accounting") accounting acct)
    [
      (16, "block", pinned, "dropped=0 peak=256 stalls=1087");
      ( 8,
        "drop-oldest",
        "0ac84c6d068a888400bb2d67bad3ddf3",
        "dropped=24338 peak=256 stalls=0" );
      ( 8,
        "drop-newest",
        "259587df1ffe9fb6ddd315f51715311b",
        "dropped=27944 peak=256 stalls=0" );
    ]

(* ------------------------------------------------------------------ *)
(* Closed-form descriptors                                             *)
(* ------------------------------------------------------------------ *)

module W = Gpusim.Warp

let ( let* ) = QCheck.Gen.( >>= )

(* A region's byte extent, stride and sampling, spread over the cases the
   descriptor walker tells apart: a 1-byte region (its span clamps to 1),
   small and large strides, strides at or past the span (every step
   wraps), [n = accesses] and a nonzero [accesses mod n]. *)
let g_region =
  let open QCheck.Gen in
  let* bytes = oneof [ int_range 1 64; int_range 65 65536; int_range 65536 (200 lsl 20) ] in
  let span = max 1 (bytes - 4) in
  let* pattern =
    oneof
      [
        return Gpusim.Kernel.Sequential;
        map
          (fun s -> Gpusim.Kernel.Strided s)
          (oneof
             [
               int_range 0 7;
               int_range 8 4096;
               int_range 4097 (4 lsl 20);
               int_range span (2 * span);
             ]);
      ]
  in
  let* accesses = oneof [ int_range 1 100; int_range 1 20_000; int_range 1 10_000_000 ] in
  let* cap = oneof [ int_range 1 64; int_range 65 2048; int_range 1 20_000 ] in
  let* write = bool in
  let* offset = int_range 0 (4 lsl 20) in
  return (bytes, pattern, accesses, cap, write, offset)

(* Objects around a region of [extent] bytes: allocations with gaps between
   them (so some addresses resolve to nothing), tensors sharing an
   allocation's base, and tensors nested inside one. *)
let g_objects ~extent =
  let open QCheck.Gen in
  let g_obj =
    let* gap = oneof [ return 0; int_range 1 64; int_range 1 ((extent / 4) + 1) ] in
    let* size = oneof [ int_range 1 4096; int_range 4096 (4 lsl 20); int_range 1 (2 * extent) ] in
    let* shared = opt (int_range 1 size) in
    let* nested =
      opt
        (let* off = int_range 0 (size - 1) in
         let* len = int_range 1 (size - off) in
         return (off, len))
    in
    return (gap, size, shared, nested)
  in
  let* first = int_range (-extent) (extent / 2) in
  let* objs = list_size (int_range 1 6) g_obj in
  return (first, objs)

(* Lay the objects out from [base + first], announcing each allocation
   and tensor in creation order. *)
let lay_out ~base (first, objs) ~alloc ~tensor =
  let at = ref (base + first) in
  List.iter
    (fun (gap, size, shared, nested) ->
      let a = !at + gap in
      alloc a size;
      Option.iter (fun len -> tensor a len "shared") shared;
      Option.iter (fun (off, len) -> tensor (a + off) len "nested") nested;
      at := a + size)
    objs

let view_of ~base objs =
  let m = Pasta.Objmap.create () in
  lay_out ~base objs
    ~alloc:(fun addr bytes -> Pasta.Objmap.on_alloc m ~addr ~bytes ~managed:false)
    ~tensor:(fun ptr bytes tag -> Pasta.Objmap.on_tensor_alloc m ~ptr ~bytes ~tag);
  Pasta.Objmap.view m

let dense_copy b =
  let c = W.cols b in
  W.batch_of_columns ~region:b.W.b_region ~chunk:b.W.b_chunk ~pc:b.W.b_pc ~addrs:c.W.addrs
    ~sizes:c.W.sizes ~warps:c.W.warps ~weights:c.W.weights ~writes:c.W.writes

let desc_info =
  {
    Pasta.Event.device_id = 0;
    grid_id = 1;
    stream = 0;
    name = "desc";
    grid = Gpusim.Dim3.make 1;
    block = Gpusim.Dim3.make 32;
    shared_bytes = 0;
    arg_ptrs = [];
    py_stack = [];
    native_stack = [];
  }

(* A batch's trace encoding, and the batch that encoding decodes to. *)
let encode b = Pasta.Ptrace.op_to_string ~time_us:0.0 (Pasta.Processor.Sk_batch (desc_info, b))

let decode s =
  match Pasta.Ptrace.op_of_string s with
  | _, _, Pasta.Processor.Sk_batch (_, batch) -> batch
  | _ -> Alcotest.fail "a batch decoded to another op"

(* [b] encodes to bytes that decode to a batch of [b]'s shape with the
   columns [dense], which re-encodes to the same bytes. *)
let round_trips ~dense b =
  let s = encode b in
  let b' = decode s in
  (match (b.W.b_shape, b'.W.b_shape) with
  | W.Descriptor _, W.Descriptor _ | W.Dense _, W.Dense _ -> true
  | _ -> false)
  && W.cols b' = W.cols dense
  && encode b' = s

let summary_of view batches =
  let acc = Pasta.Devagg.accum_create () in
  List.iter (Pasta.Devagg.accum_add acc view) batches;
  Pasta.Devagg.merge_accums [| acc |]

let print_case ((bytes, pattern, accesses, cap, write, offset), (first, objs)) =
  Printf.sprintf "bytes=%d pattern=%s accesses=%d cap=%d write=%b offset=%d objs@%d=[%s]"
    bytes
    (match pattern with
    | Gpusim.Kernel.Strided s -> Printf.sprintf "strided %d" s
    | _ -> "sequential")
    accesses cap write offset first
    (String.concat "; "
       (List.map
          (fun (gap, size, shared, nested) ->
            Printf.sprintf "+%d:%d%s%s" gap size
              (match shared with Some l -> Printf.sprintf " shared %d" l | None -> "")
              (match nested with
              | Some (o, l) -> Printf.sprintf " nested %d:%d" o l
              | None -> ""))
          objs))

let g_case =
  let* ((bytes, _, _, _, _, _) as region) = g_region in
  QCheck.Gen.map (fun objs -> (region, objs)) (g_objects ~extent:bytes)

(* The case's region base and its chunks, each as a descriptor. *)
let case_descriptors (bytes, pattern, accesses, cap, write, offset) =
  let base = 0x7f00_0000_0000 + offset in
  let k =
    Gpusim.Kernel.make ~name:"desc" ~grid:(Gpusim.Dim3.make 1) ~block:(Gpusim.Dim3.make 32)
      ~regions:[ Gpusim.Kernel.region ~write ~pattern ~base ~bytes ~accesses () ]
      ()
  in
  (base, Array.to_list (Array.map (W.describe ~warp_size:32) (W.plan ~max_records_per_region:cap k)))

(* A descriptor must reduce to exactly the tallies the record scan of its
   materialized columns forms — including which object each key keeps
   when a tensor shares its base with an allocation — chunk by chunk, and
   across consecutive chunks reduced by one accumulator.  Its closed-form
   weight must match the columns too, and its trace encoding must decode
   to a descriptor of the same records that re-encodes to the same bytes,
   as the dense copy's encoding does for the dense copy. *)
let prop_descriptor_runs =
  QCheck.Test.make ~name:"descriptor runs equal the materialized scan" ~count:500
    (QCheck.make ~print:print_case g_case)
    (fun (region, objs) ->
      let base, descs = case_descriptors region in
      let view = view_of ~base objs in
      let dense = List.map dense_copy descs in
      let first k l = List.filteri (fun i _ -> i < k) l in
      List.for_all2
        (fun d m ->
          W.batch_weight d = W.batch_weight m
          && summary_of view [ d ] = summary_of view [ m ]
          && round_trips ~dense:m d
          && round_trips ~dense:m m)
        descs dense
      && summary_of view (first 4 descs) = summary_of view (first 4 dense))

(* Per-kernel footprints of the CS-CPU working-set tool, fed the objects
   as allocation and tensor events, then each kernel's batches through
   its columnar callback. *)
let cs_cpu_footprints ~base objs kernels =
  let module M = Pasta_tools.Memory_charact in
  let t = M.create ~variant:M.Cpu_sanitizer () in
  let tool = M.tool t in
  let event payload = tool.Pasta.Tool.on_event { Pasta.Event.device = 0; time_us = 0.0; payload } in
  lay_out ~base objs
    ~alloc:(fun addr bytes -> event (Pasta.Event.Memory_alloc { addr; bytes; managed = false }))
    ~tensor:(fun ptr bytes tag ->
      event (Pasta.Event.Tensor_alloc { ptr; bytes; pool_allocated = 0; pool_reserved = 0; tag }));
  let columns = Option.get tool.Pasta.Tool.on_access_columns in
  List.iter
    (fun batches ->
      List.iter (columns desc_info) batches;
      tool.Pasta.Tool.on_kernel_end desc_info
        { Pasta.Event.duration_us = 0.0; true_accesses = 0; faulted_pages = 0 })
    kernels;
  M.kernel_footprints t

(* The CS-CPU consumer walks a descriptor by runs of one resolve-memo
   extent; it must note exactly the objects its record scan of the dense
   copy notes, in the same order (a tensor sharing an allocation's base
   shares its key).  The memo is sticky across chunks and kernels, so
   the chunks run in one kernel, then reversed in a second one. *)
let prop_cs_cpu_descriptors =
  QCheck.Test.make ~name:"CS-CPU descriptor runs equal the materialized scan" ~count:500
    (QCheck.make ~print:print_case g_case)
    (fun (region, objs) ->
      let base, descs = case_descriptors region in
      let dense = List.map dense_copy descs in
      cs_cpu_footprints ~base objs [ descs; List.rev descs ]
      = cs_cpu_footprints ~base objs [ dense; List.rev dense ])

(* ------------------------------------------------------------------ *)
(* Live, captured and replayed descriptor runs                         *)
(* ------------------------------------------------------------------ *)

(* The tools whose record channel takes descriptors: the three
   Gpu_parallel reductions and the CS-CPU host analysis. *)
let descriptor_tools =
  [
    ("hotness_fine", fun () -> Pasta_tools.Hotness.tool_fine (Pasta_tools.Hotness.create ()));
    ( "memory_charact_par",
      fun () ->
        Pasta_tools.Memory_charact.tool
          (Pasta_tools.Memory_charact.create ~variant:Pasta_tools.Memory_charact.Gpu_parallel ())
    );
    ( "region_roofline",
      fun () -> Pasta_tools.Region_roofline.tool (Pasta_tools.Region_roofline.create ()) );
    ( "memory_charact_cs_cpu",
      fun () ->
        Pasta_tools.Memory_charact.tool
          (Pasta_tools.Memory_charact.create ~variant:Pasta_tools.Memory_charact.Cpu_sanitizer ())
    );
  ]

(* One inference iteration; returns the report and the ring accounting. *)
let parallel_run ?capture ~model ~cap mk =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let (), r =
    Pasta.Session.run ?capture ~sample_cap:cap ~tool:(mk ()) device (fun () ->
        Dlfw.Runner.run ctx (Dlfw.Runner.build ctx model) ~mode:Dlfw.Runner.Inference ~iters:1)
  in
  Dlfw.Ctx.destroy ctx;
  let h = r.Pasta.Session.health in
  ( Format.asprintf "%t" r.Pasta.Session.report,
    (r.Pasta.Session.events_seen, h.Pasta.Session.records_buffered_peak, h.Pasta.Session.records_dropped) )

(* Strict replay; returns the report and the replaying processor's ring
   accounting. *)
let replay_run path mk =
  let o = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool:(mk ()) path in
  let _, p, _ = List.hd o.Pasta.Replay.backends in
  let reg = Pasta.Processor.metrics p and labels = Pasta.Processor.metric_labels p in
  let counter name = Option.get (Pasta_util.Metric.find_counter reg ~labels name) in
  let peak = Option.get (Pasta_util.Metric.find_gauge reg ~labels "pasta_records_buffered_peak") in
  ( Format.asprintf "%t" o.Pasta.Replay.report,
    (counter "pasta_events_seen", int_of_float peak, counter "pasta_records_dropped") )

(* Copy the trace at [src] to [dst] with every descriptor batch rewritten
   as its materialized columns; returns how many were rewritten. *)
let densify src dst =
  let h = Pasta.Ptrace.read_header_of_file src in
  let w = Pasta.Ptrace.create_writer ~meta:h.Pasta.Ptrace.h_meta ~device:h.Pasta.Ptrace.h_device dst in
  let rewritten = ref 0 in
  let (_ : Pasta.Ptrace.header * Pasta.Ptrace.read_stats) =
    Pasta.Ptrace.read_file ~mode:Pasta.Ptrace.Strict src ~f:(fun ~time_us op ->
        let op =
          match op with
          | Pasta.Processor.Sk_batch (k, ({ W.b_shape = W.Descriptor _; _ } as b)) ->
              incr rewritten;
              Pasta.Processor.Sk_batch (k, dense_copy b)
          | op -> op
        in
        Pasta.Ptrace.write_op w ~time_us op)
  in
  Pasta.Ptrace.close_writer w;
  !rewritten

(* Live runs and captures reduce closed-form chunks as descriptors, and
   the trace stores them as such.  The materialized reference is the
   captured trace with every descriptor rewritten as its columns, replayed
   strictly: live, replayed and densified-replayed reports, and their ring
   accounting, must agree. *)
let test_live_captured_replayed () =
  List.iter
    (fun domains ->
      Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
      List.iter
        (fun (name, mk) ->
          List.iter
            (fun model ->
              List.iter
                (fun cap ->
                  let label what =
                    Printf.sprintf "%s %s cap %d, %d domains: %s" name model cap domains what
                  in
                  let path = Filename.temp_file "pasta_desc" ".ptrace" in
                  let dense_path = Filename.temp_file "pasta_dense" ".ptrace" in
                  let live, live_acct = parallel_run ~model ~cap mk in
                  let captured, cap_acct = parallel_run ~capture:path ~model ~cap mk in
                  let replayed, replay_acct = replay_run path mk in
                  let rewritten = densify path dense_path in
                  let reference, reference_acct = replay_run dense_path mk in
                  Sys.remove path;
                  Sys.remove dense_path;
                  check_bool (label "the capture holds descriptors") true (rewritten > 0);
                  Alcotest.(check string) (label "live = densified report") reference live;
                  Alcotest.(check string) (label "captured = densified report") reference captured;
                  Alcotest.(check string) (label "replayed = densified report") reference replayed;
                  List.iter
                    (fun (what, acct) ->
                      Alcotest.(check (triple int int int))
                        (label (what ^ ": events seen, buffered peak, dropped"))
                        reference_acct acct)
                    [ ("live", live_acct); ("captured", cap_acct); ("replayed", replay_acct) ])
                [ 1; 37; 1024 ])
            [ "AN"; "BERT"; "Whisper" ])
        descriptor_tools)
    [ 1; 2 ];
  Pasta.Config.unset "ACCEL_PROF_DOMAINS"

(* Two ring slots under drop-oldest evict batches inside every kernel's
   hand-off; the pushes must come in the same order, one per batch, as
   when each batch was handed over on its own.  Pinned before batches
   were handed to the host once per kernel. *)
let test_drop_oldest_handoff () =
  Pasta.Config.set "ACCEL_PROF_BUFFER_CAP" "2";
  Pasta.Config.set "ACCEL_PROF_OVERFLOW_POLICY" "drop-oldest";
  let report, (seen, peak, dropped) =
    parallel_run ~model:"BERT" ~cap:1024 (List.assoc "hotness_fine" descriptor_tools)
  in
  Pasta.Config.unset "ACCEL_PROF_BUFFER_CAP";
  Pasta.Config.unset "ACCEL_PROF_OVERFLOW_POLICY";
  check_int "events seen" 481950 seen;
  check_int "buffered peak" 2048 peak;
  check_int "records dropped" 179200 dropped;
  Alcotest.(check string)
    "degraded report" "00a6ac83a80eeb5ee732aacc507f3d00"
    (Digest.to_hex (Digest.string report))

(* A BERT run at sample cap 16384 fills the CS-CPU host buffer after
   almost every batch, so an 8-item ring stalls or drops inside every
   kernel's hand-off.  The accounting and the report under each overflow
   policy were measured before the host analysis handed a kernel's
   flushes over at once, at its exit. *)
let test_cs_cpu_handoff_pinned () =
  Pasta.Config.set "ACCEL_PROF_BUFFER_CAP" "8";
  List.iter
    (fun (policy, stalls, dropped, batches, md5) ->
      Pasta.Config.set "ACCEL_PROF_OVERFLOW_POLICY" policy;
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let tool = Pasta_tools.Memory_charact.(tool (create ~variant:Cpu_sanitizer ())) in
      let (), r =
        Pasta.Session.run ~sample_cap:16384 ~tool device (fun () ->
            let m = Dlfw.Runner.build ctx "BERT" in
            Dlfw.Runner.run ctx m ~mode:Dlfw.Runner.Inference ~iters:1)
      in
      Dlfw.Ctx.destroy ctx;
      let h = r.Pasta.Session.health in
      check_int (policy ^ ": stalls") stalls h.Pasta.Session.buffer_stalls;
      check_int (policy ^ ": records dropped") dropped h.Pasta.Session.records_dropped;
      check_int (policy ^ ": buffered peak") 8192 h.Pasta.Session.records_buffered_peak;
      check_int (policy ^ ": batches delivered") batches h.Pasta.Session.batches_delivered;
      Alcotest.(check string)
        (policy ^ ": report") md5
        (Digest.to_hex (Digest.string (Format.asprintf "%t" r.Pasta.Session.report))))
    [
      ("block", 719, 0, 6520, "5148c378515ae3ed43dd6d3888055bf2");
      ("drop-oldest", 0, 5425664, 1209, "f295a2af927d72412c437a4e60b9125e");
      ("drop-newest", 0, 5407522, 1209, "4e0f18d34f8570d60a69a8779c0ca94a");
    ];
  Pasta.Config.unset "ACCEL_PROF_BUFFER_CAP";
  Pasta.Config.unset "ACCEL_PROF_OVERFLOW_POLICY"

let suite =
  [
    ("pool map preserves index order", `Quick, test_pool_map_order);
    ("pool of size 1 runs inline", `Quick, test_pool_size_one_inline);
    ("small jobs run inline", `Quick, test_pool_small_job_inline);
    ("pool is reusable across jobs", `Quick, test_pool_reuse);
    ("pool propagates exceptions", `Quick, test_pool_exception);
    ("objmap resolve memo", `Quick, test_objmap_memo);
    ("memo counters in processor metrics", `Quick, test_processor_memo_counters);
    ("identical output at 1/2/8 domains", `Quick, test_determinism_across_domains);
    ("identical output under faults", `Quick, test_determinism_under_faults);
    ("columns = per-record stream", `Quick, test_columns_vs_per_record_equivalence);
    ("live summaries validate (1 domain)", `Quick, test_summary_validates 1);
    ("live summaries validate (2 domains)", `Quick, test_summary_validates 2);
    ("range-filter accounting adds up", `Quick, test_filtered_accounting);
    ("NVBit-CPU callback stream pinned", `Quick, test_nvbit_callback_digest);
    QCheck_alcotest.to_alcotest prop_descriptor_runs;
    QCheck_alcotest.to_alcotest prop_cs_cpu_descriptors;
    ("live, captured and replayed runs agree", `Quick, test_live_captured_replayed);
    ("drop-oldest hand-off pinned", `Quick, test_drop_oldest_handoff);
    ("CS-CPU hand-off ring accounting pinned", `Quick, test_cs_cpu_handoff_pinned);
  ]
