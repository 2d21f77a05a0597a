(* Edge cases and cross-cutting properties that the per-module suites do
   not reach: concurrent sessions, analysis-model equivalence on synthetic
   streams, allocator cache-retry, UVM clipping, pretty-printer totality. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* ---- Analysis-model equivalence on synthetic kernel streams ---- *)

(* Generate a random stream of allocations + kernels over them; the
   GPU-resident and CPU-trace working-set tools must agree exactly. *)
let prop_analysis_models_equivalent =
  QCheck.Test.make ~name:"working sets agree across analysis models (synthetic)" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_range 1 64) (int_range 1 4)))
    (fun spec ->
      let run variant =
        let device = Gpusim.Device.create Gpusim.Arch.a100 in
        Gpusim.Device.set_sample_cap device 16;
        let mc = Pasta_tools.Memory_charact.create ~variant () in
        let session =
          Pasta.Session.attach ~tool:(Pasta_tools.Memory_charact.tool mc) device
        in
        let buffers =
          List.map
            (fun (kb, _) -> Gpusim.Device.malloc device (kb * 1024))
            spec
        in
        List.iteri
          (fun i (kb, nregions) ->
            let base = (List.nth buffers i).Gpusim.Device_mem.base in
            let regions =
              List.init nregions (fun j ->
                  Gpusim.Kernel.region ~base:(base + (j * 256))
                    ~bytes:(min 256 ((kb * 1024) - (j * 256)))
                    ~accesses:(100 * (j + 1))
                    ())
            in
            ignore
              (Gpusim.Device.launch device
                 (Gpusim.Kernel.make
                    ~name:(Printf.sprintf "synthetic_%d" i)
                    ~grid:(Gpusim.Dim3.make 4) ~block:(Gpusim.Dim3.make 64) ~regions ())))
          spec;
        let _ = Pasta.Session.detach session in
        Pasta_tools.Memory_charact.kernel_footprints mc
      in
      let gpu = run Pasta_tools.Memory_charact.Gpu in
      let cpu = run Pasta_tools.Memory_charact.Cpu_sanitizer in
      gpu = cpu)

(* ---- Concurrent sessions ---- *)

let test_two_sessions_coexist () =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let kf = Pasta_tools.Kernel_freq.create () in
  let tx = Pasta.Trace_export.create () in
  let s1 = Pasta.Session.attach ~tool:(Pasta_tools.Kernel_freq.tool kf) device in
  let s2 = Pasta.Session.attach ~tool:(Pasta.Trace_export.tool tx) device in
  let x = Dlfw.Ops.new_tensor ctx [ 16 ] Dlfw.Dtype.F32 in
  let y = Dlfw.Ops.relu ctx x in
  Dlfw.Tensor.release x;
  Dlfw.Tensor.release y;
  let r2 = Pasta.Session.detach s2 in
  let r1 = Pasta.Session.detach s1 in
  check_int "session 1 saw the kernel" 1 r1.Pasta.Session.kernels;
  check_int "session 2 saw the kernel" 1 r2.Pasta.Session.kernels;
  check_bool "trace captured too" true (Pasta.Trace_export.event_count tx > 0);
  Dlfw.Ctx.destroy ctx

let test_annotations_route_to_innermost () =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let kf_outer = Pasta_tools.Kernel_freq.create () in
  let kf_inner = Pasta_tools.Kernel_freq.create () in
  let s_outer =
    Pasta.Session.attach ~tool:(Pasta_tools.Kernel_freq.tool kf_outer) device
  in
  let s_inner =
    Pasta.Session.attach ~tool:(Pasta_tools.Kernel_freq.tool kf_inner) device
  in
  (* pasta.start binds to the innermost (most recently attached) session. *)
  Pasta.Session.start ();
  check_int "inner range opened" 1
    (Pasta.Range.annotation_depth (Pasta.Processor.range (Pasta.Session.processor s_inner)));
  check_int "outer untouched" 0
    (Pasta.Range.annotation_depth (Pasta.Processor.range (Pasta.Session.processor s_outer)));
  Pasta.Session.end_ ();
  ignore (Pasta.Session.detach s_inner);
  ignore (Pasta.Session.detach s_outer)

(* ---- Allocator cache retry ---- *)

let tiny_arch =
  { Gpusim.Arch.a100 with Gpusim.Arch.name = "tiny"; mem_bytes = 32 * 1024 * 1024 }

let test_allocator_cache_retry () =
  let device = Gpusim.Device.create tiny_arch in
  let pool = Dlfw.Allocator.create device in
  (* A huge block gets its own exact-size segment; freeing caches it. *)
  let a = Dlfw.Allocator.alloc pool (12 * 1024 * 1024) in
  Dlfw.Allocator.free pool a;
  check_bool "segment cached" true (Dlfw.Allocator.reserved_bytes pool > 0);
  (* 24 MB does not fit alongside the cached 12 MB on a 32 MB device: the
     allocator must release the cache and retry rather than fail. *)
  let b = Dlfw.Allocator.alloc pool (24 * 1024 * 1024) in
  check_bool "retry after releasing cache succeeded" true (b.Dlfw.Allocator.bytes > 0);
  Dlfw.Allocator.free pool b;
  Dlfw.Allocator.destroy pool

let test_allocator_hard_oom () =
  let device = Gpusim.Device.create tiny_arch in
  let pool = Dlfw.Allocator.create device in
  check_bool "oom propagates" true
    (try
       ignore (Dlfw.Allocator.alloc pool (64 * 1024 * 1024));
       false
     with Gpusim.Device_mem.Out_of_memory _ -> true);
  Dlfw.Allocator.destroy pool

(* ---- UVM clipping ---- *)

let test_uvm_clips_to_range () =
  let clock = Gpusim.Clock.create () in
  let page = Gpusim.Arch.a100.Gpusim.Arch.uvm_page_bytes in
  let u = Gpusim.Uvm.create Gpusim.Arch.a100 clock ~capacity:(16 * page) in
  Gpusim.Uvm.register_range u ~base:0 ~bytes:(2 * page);
  (* Prefetch far past the end of the range: must clip, not crash. *)
  Gpusim.Uvm.prefetch u ~base:page ~bytes:(100 * page);
  check_int "clipped to range" 1 (Gpusim.Uvm.resident_pages u);
  let f = ref 0 in
  Gpusim.Uvm.touch u ~base:0 ~bytes:(50 * page) ~faulted_pages:f;
  check_int "touch clipped too" 1 !f;
  Gpusim.Uvm.check_invariants u

(* ---- Event vocabulary: one sample per constructor ---- *)

let sample_ki =
  {
    Pasta.Event.device_id = 0;
    grid_id = 1;
    stream = 0;
    name = "k";
    grid = Gpusim.Dim3.make 1;
    block = Gpusim.Dim3.make 32;
    shared_bytes = 0;
    arg_ptrs = [];
    py_stack = [];
    native_stack = [];
  }

let sample_access =
  { Pasta.Event.addr = 0; size = 4; write = true; pc = 16; warp = 0; weight = 2 }

let sample_batch =
  Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:16 ~addrs:[| 0; 64 |]
    ~sizes:[| 4; 4 |] ~warps:[| 0; 1 |] ~weights:[| 1; 2 |]
    ~writes:(Bytes.make 2 '\000')

let sample_summary =
  let acc = Pasta.Devagg.accum_create () in
  Pasta.Devagg.accum_add acc (Pasta.Objmap.view (Pasta.Objmap.create ())) sample_batch;
  Pasta.Devagg.merge_accums [| acc |]

let sample_span =
  {
    Pasta.Event.rg_id = 0x1234;
    rg_label = "gmem[0].ld";
    rg_start_pc = 48;
    rg_end_pc = 80;
    rg_mem_region = 0;
    rg_start_us = 1.0;
    rg_time_us = 2.0;
    rg_bytes = 256;
    rg_flops = 0.0;
  }

(* Exactly one payload per constructor; the [all_kinds] cross-check below
   fails if a new constructor is added without extending this list. *)
let sample_payloads =
  [
    Pasta.Event.Driver_call { name = "LaunchKernel"; phase = `Enter };
    Pasta.Event.Runtime_call { name = "Memcpy"; phase = `Exit };
    Pasta.Event.Kernel_launch
      {
        info = sample_ki;
        phase = `End { Pasta.Event.duration_us = 1.0; true_accesses = 2; faulted_pages = 0 };
      };
    Pasta.Event.Memory_copy { bytes = 1; direction = `D2d; stream = 1 };
    Pasta.Event.Memory_set { addr = 0; bytes = 16; value = 0 };
    Pasta.Event.Memory_alloc { addr = 0; bytes = 16; managed = false };
    Pasta.Event.Memory_free { addr = 0; bytes = 16 };
    Pasta.Event.Synchronization { scope = `Stream 2 };
    Pasta.Event.Device_summary { kernel = sample_ki; summary = sample_summary };
    Pasta.Event.Shared_access { kernel = sample_ki; access = sample_access };
    Pasta.Event.Kernel_region
      {
        kernel = sample_ki;
        region = { Pasta.Event.base = 0; extent = 4; accesses = 1; written = true };
      };
    Pasta.Event.Barrier { kernel = sample_ki; count = 3 };
    Pasta.Event.Kernel_profile { kernel = sample_ki; profile = Gpusim.Kernel.no_profile };
    Pasta.Event.Operator { name = "aten::x"; phase = `Exit; seq = 9 };
    Pasta.Event.Tensor_alloc
      { ptr = 0; bytes = 8; pool_allocated = 8; pool_reserved = 8; tag = "t" };
    Pasta.Event.Tensor_free { ptr = 0; bytes = 8; pool_allocated = 0; pool_reserved = 8 };
    Pasta.Event.Annotation { label = "r"; phase = `End };
    Pasta.Event.Tool_quarantined { tool = "t"; failures = 3 };
    Pasta.Event.Region_enter { kernel = sample_ki; span = sample_span };
    Pasta.Event.Region_exit { kernel = sample_ki; span = sample_span };
  ]

let test_event_pp_total () =
  List.iter
    (fun payload ->
      let s =
        Format.asprintf "%a" Pasta.Event.pp { Pasta.Event.device = 0; time_us = 0.0; payload }
      in
      check_bool (Pasta.Event.kind_name payload) true (String.length s > 0))
    sample_payloads

let test_all_kinds_closed () =
  let sorted l = List.sort compare l in
  (* [all_kinds] lists each constructor's kind exactly once, and the
     constructor samples above cover every one of them. *)
  Alcotest.(check (list string))
    "all_kinds matches the constructor samples"
    (sorted Pasta.Event.all_kinds)
    (sorted (List.map Pasta.Event.kind_name sample_payloads));
  check_int "no duplicate kinds"
    (List.length Pasta.Event.all_kinds)
    (List.length (List.sort_uniq compare Pasta.Event.all_kinds))

(* Table II's global memory access is not an [Event.t] constructor: a
   sampled record reaches a host-analysis tool only through [on_access]
   (or, batched, [on_access_columns]).  The producer and consumer checks
   below cover it through that callback. *)
let record_kinds = [ "global_access" ]

(* ---- Every event kind has a live producer ---- *)

(* Sessions over each vendor backend and analysis model, all feeding one
   [seen] table; at the end every kind in [Event.all_kinds] must have
   appeared.  A constructor nothing can emit is dead vocabulary. *)
let test_every_kind_produced () =
  let seen = Hashtbl.create 64 in
  let mark payload = Hashtbl.replace seen (Pasta.Event.kind_name payload) () in
  let collector ?(fine = Pasta.Tool.No_fine_grained) () =
    {
      (Pasta.Tool.default ~fine_grained:fine "collector") with
      Pasta.Tool.on_event = (fun ev -> mark ev.Pasta.Event.payload);
      on_access = (fun _ _ -> Hashtbl.replace seen "global_access" ());
    }
  in
  let collect ?fine arch f =
    let device = Gpusim.Device.create arch in
    let ctx = Dlfw.Ctx.create device in
    let (), result =
      Pasta.Session.run ~tool:(collector ?fine ()) device (fun () -> f device ctx)
    in
    List.iter
      (fun (e : Pasta.Event.t) -> mark e.Pasta.Event.payload)
      result.Pasta.Session.health.Pasta.Session.incidents;
    Dlfw.Ctx.destroy ctx
  in
  let relu ctx =
    let x = Dlfw.Ops.new_tensor ctx [ 256 ] Dlfw.Dtype.F32 in
    let y = Dlfw.Ops.relu ctx x in
    Dlfw.Tensor.release x;
    Dlfw.Tensor.release y
  in
  (* NVIDIA Sanitizer, coarse domains + framework hooks + annotations:
     driver_call, kernel_launch, memory_copy/set/alloc/free,
     synchronization, operator, tensor_alloc/free, annotation. *)
  collect Gpusim.Arch.a100 (fun device ctx ->
      Pasta.Session.start ~label:"roi" ();
      relu ctx;
      let a = Gpusim.Device.malloc device 4096 in
      let base = a.Gpusim.Device_mem.base in
      Gpusim.Device.memset device ~addr:base ~bytes:64 ~value:0 ();
      Gpusim.Device.memcpy device ~dst:base ~src:base ~bytes:64
        ~kind:Gpusim.Device.Device_to_device ();
      Gpusim.Device.synchronize device;
      Gpusim.Device.free device base;
      Pasta.Session.end_ ~label:"roi" ());
  (* AMD Rocprofiler: the only runtime_call producer. *)
  collect Gpusim.Arch.mi300x (fun device _ctx ->
      let a = Gpusim.Device.malloc device 4096 in
      Gpusim.Device.memcpy device ~dst:a.Gpusim.Device_mem.base
        ~src:a.Gpusim.Device_mem.base ~bytes:64
        ~kind:Gpusim.Device.Device_to_device ();
      Gpusim.Device.synchronize device);
  (* Host trace analysis, per record: global_access. *)
  collect ~fine:Pasta.Tool.Cpu_sanitizer Gpusim.Arch.a100 (fun _ ctx -> relu ctx);
  (* Device-resident analysis models: kernel_region / device_summary. *)
  collect ~fine:Pasta.Tool.Gpu_accelerated Gpusim.Arch.a100 (fun _ ctx -> relu ctx);
  collect ~fine:Pasta.Tool.Gpu_parallel Gpusim.Arch.a100 (fun _ ctx -> relu ctx);
  (* Intra-kernel region instrumentation: region_enter / region_exit, from
     a real session with the knob on. *)
  Pasta.Config.set "ACCEL_PROF_REGIONS" "fine";
  Fun.protect
    ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_REGIONS")
    (fun () -> collect Gpusim.Arch.a100 (fun _ ctx -> relu ctx));
  (* Instruction-level patching: kernel_profile, shared_access, barrier.
     Elementwise kernels use no shared memory — a GEMM does. *)
  collect ~fine:Pasta.Tool.Instruction_level Gpusim.Arch.a100 (fun _ ctx ->
      let x = Dlfw.Ops.new_tensor ctx [ 64; 64 ] Dlfw.Dtype.F32 in
      let w = Dlfw.Ops.new_tensor ctx [ 64; 64 ] Dlfw.Dtype.F32 in
      let y = Dlfw.Ops.linear ctx ~input:x ~weight:w ~bias:None ~m:64 ~k:64 ~n:64 in
      List.iter Dlfw.Tensor.release [ x; w; y ]);
  (* The supervision layer's own event, via a tripped circuit breaker. *)
  collect Gpusim.Arch.a100 (fun device _ctx ->
      let bomb =
        {
          (Pasta.Tool.default "bomb") with
          Pasta.Tool.on_event = (fun _ -> failwith "boom");
        }
      in
      let (), inner =
        Pasta.Session.run ~tool:bomb device (fun () ->
            for _ = 1 to 20 do
              Gpusim.Device.synchronize device
            done)
      in
      List.iter
        (fun (e : Pasta.Event.t) -> mark e.Pasta.Event.payload)
        inner.Pasta.Session.health.Pasta.Session.incidents);
  List.iter
    (fun kind -> check_bool ("produced: " ^ kind) true (Hashtbl.mem seen kind))
    (Pasta.Event.all_kinds @ record_kinds)

(* The OpenCL adapter speaks foreign conventions end to end; one
   opencl-backed session must still produce the full canonical subset a
   GPU substrate can emit — proving queue progressions, mapped windows
   and refcount edges land on the shared vocabulary, not beside it. *)
let test_opencl_backend_production () =
  let seen = Hashtbl.create 32 in
  let mark payload = Hashtbl.replace seen (Pasta.Event.kind_name payload) () in
  let collector =
    {
      (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_accelerated "collector") with
      Pasta.Tool.on_event = (fun ev -> mark ev.Pasta.Event.payload);
    }
  in
  Pasta.Config.set "ACCEL_PROF_REGIONS" "fine";
  Fun.protect
    ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_REGIONS")
    (fun () ->
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let (), _ =
        Pasta.Session.run ~backend:Pasta.Backend.Opencl ~tool:collector device
          (fun () ->
            Pasta.Session.start ~label:"roi" ();
            let x = Dlfw.Ops.new_tensor ctx [ 256 ] Dlfw.Dtype.F32 in
            let y = Dlfw.Ops.relu ctx x in
            Dlfw.Tensor.release x;
            Dlfw.Tensor.release y;
            let a = Gpusim.Device.malloc device 4096 in
            let base = a.Gpusim.Device_mem.base in
            Gpusim.Device.memset device ~addr:base ~bytes:64 ~value:0 ();
            Gpusim.Device.memcpy device ~dst:base ~src:base ~bytes:64
              ~kind:Gpusim.Device.Device_to_device ();
            Gpusim.Device.synchronize device;
            Gpusim.Device.free device base;
            Pasta.Session.end_ ~label:"roi" ())
      in
      Dlfw.Ctx.destroy ctx);
  List.iter
    (fun kind ->
      check_bool ("opencl produces " ^ kind) true (Hashtbl.mem seen kind))
    [
      (* device_summary is absent by design: it is the Gpu_parallel
         reduction's product, and that model is Sanitizer-only *)
      "driver_call"; "kernel_launch"; "memory_copy"; "memory_set";
      "memory_alloc"; "memory_free"; "synchronization"; "operator";
      "tensor_alloc"; "tensor_free"; "annotation"; "kernel_region";
      "region_enter"; "region_exit";
    ]

(* ---- Every event kind has a registry consumer ---- *)

(* kind -> a registered tool that actually uses it (not a wildcard
   pass-through).  Kept by hand so removing a consumer breaks the test. *)
let registry_consumers =
  [
    ("driver_call", "trace_export");
    ("runtime_call", "trace_export");
    ("kernel_launch", "kernel_freq");
    ("memory_copy", "transfer");
    ("memory_set", "trace_export");
    ("memory_alloc", "memory_charact");
    ("memory_free", "memory_charact");
    ("synchronization", "trace_export");
    ("global_access", "memory_charact_nvbit_cpu");
    ("device_summary", "memory_charact_par");
    ("shared_access", "barrier_stall");
    ("kernel_region", "hotness");
    ("barrier", "barrier_stall");
    ("kernel_profile", "divergence");
    ("operator", "op_summary");
    ("tensor_alloc", "mem_timeline");
    ("tensor_free", "mem_timeline");
    ("annotation", "trace_export");
    ("tool_quarantined", "trace_export");
    ("region_enter", "region_latency");
    ("region_exit", "region_roofline");
  ]

let test_every_kind_consumed () =
  Pasta_tools.Tools.register_all ();
  Alcotest.(check (list string))
    "consumer table covers the whole vocabulary"
    (List.sort compare (Pasta.Event.all_kinds @ record_kinds))
    (List.sort compare (List.map fst registry_consumers));
  List.iter
    (fun (kind, name) ->
      check_bool
        (Printf.sprintf "consumer of %s (%s) is registered" kind name)
        true
        (Pasta.Registry.find name <> None))
    registry_consumers;
  (* A global access reaches its consumer through [on_access]: a
     per-record host analysis with no columns callback. *)
  let nvbit = (Option.get (Pasta.Registry.find "memory_charact_nvbit_cpu")) () in
  check_bool "global_access is consumed per record, through on_access" true
    (nvbit.Pasta.Tool.fine_grained = Pasta.Tool.Cpu_nvbit
    && nvbit.Pasta.Tool.on_access_columns = None)

let test_consumers_functional () =
  (* trace_export materializes the four API-surface kinds it just gained. *)
  let tx = Pasta.Trace_export.create () in
  List.iter
    (fun payload ->
      Pasta.Trace_export.record tx { Pasta.Event.device = 0; time_us = 1.0; payload })
    [
      Pasta.Event.Driver_call { name = "LaunchKernel"; phase = `Exit };
      Pasta.Event.Runtime_call { name = "Memcpy"; phase = `Exit };
      Pasta.Event.Memory_set { addr = 0; bytes = 16; value = 0 };
      Pasta.Event.Synchronization { scope = `Device };
    ];
  check_int "api-surface instants materialized" 4 (Pasta.Trace_export.event_count tx);
  let json = Pasta.Trace_export.to_json tx in
  List.iter
    (fun cat ->
      check_bool ("trace has " ^ cat) true
        (Astring_contains.contains json (Printf.sprintf {|"cat":"%s"|} cat)))
    [ "driver_api"; "runtime_api"; "memory"; "sync" ];
  (* barrier_stall consumes the dynamic fine-grained stream. *)
  let b = Pasta_tools.Barrier_stall.create () in
  let tool = Pasta_tools.Barrier_stall.tool b in
  tool.Pasta.Tool.on_event
    {
      Pasta.Event.device = 0;
      time_us = 1.0;
      payload = Pasta.Event.Barrier { kernel = sample_ki; count = 3 };
    };
  tool.Pasta.Tool.on_event
    {
      Pasta.Event.device = 0;
      time_us = 2.0;
      payload = Pasta.Event.Shared_access { kernel = sample_ki; access = sample_access };
    };
  check_int "dynamic barriers counted" 3 (Pasta_tools.Barrier_stall.dynamic_barriers b);
  check_int "dynamic shared weight counted" 2 (Pasta_tools.Barrier_stall.dynamic_shared b);
  (* memory_charact's sanitizer-CPU variant opts into columnar delivery. *)
  let mc =
    Pasta_tools.Memory_charact.tool
      (Pasta_tools.Memory_charact.create ~variant:Pasta_tools.Memory_charact.Cpu_sanitizer ())
  in
  check_bool "CS-CPU takes columns" true (mc.Pasta.Tool.on_access_columns <> None);
  (* region_latency consumes matched Region_enter/Region_exit pairs plus
     the launch-end wall time; region_roofline consumes Region_exit. *)
  let rl = Pasta_tools.Region_latency.create () in
  let rlt = Pasta_tools.Region_latency.tool rl in
  let feed tool payload =
    tool.Pasta.Tool.on_event { Pasta.Event.device = 0; time_us = 1.0; payload }
  in
  feed rlt (Pasta.Event.Region_enter { kernel = sample_ki; span = sample_span });
  feed rlt (Pasta.Event.Region_exit { kernel = sample_ki; span = sample_span });
  feed rlt
    (Pasta.Event.Kernel_launch
       {
         info = sample_ki;
         phase =
           `End { Pasta.Event.duration_us = 2.0; true_accesses = 2; faulted_pages = 0 };
       });
  Alcotest.(check (float 0.0))
    "region_latency attributed the span" 2.0
    (Pasta_tools.Region_latency.region_sum_us rl sample_ki.Pasta.Event.name);
  let rr = Pasta_tools.Region_roofline.create () in
  let rrt = Pasta_tools.Region_roofline.tool rr in
  feed rrt (Pasta.Event.Region_exit { kernel = sample_ki; span = sample_span });
  (match Pasta_tools.Region_roofline.classify rr with
  | [ (k, label, bound) ] ->
      Alcotest.(check string) "roofline kernel" sample_ki.Pasta.Event.name k;
      Alcotest.(check string) "roofline region" sample_span.Pasta.Event.rg_label label;
      check_bool "pure-load region is memory-bound" true
        (bound = Pasta_tools.Region_roofline.Memory_bound)
  | rows ->
      Alcotest.failf "expected one classified region, got %d" (List.length rows))

let test_misc_pps () =
  check_bool "arch pp" true (String.length (Format.asprintf "%a" Gpusim.Arch.pp Gpusim.Arch.tpu_v4) > 0);
  let k =
    Gpusim.Kernel.make ~name:"k" ~grid:(Gpusim.Dim3.make 2) ~block:(Gpusim.Dim3.make 32)
      ~regions:[ Gpusim.Kernel.region ~base:0 ~bytes:64 ~accesses:16 () ]
      ()
  in
  check_bool "kernel pp" true
    (Astring_contains.contains (Format.asprintf "%a" Gpusim.Kernel.pp k) "k<<<");
  let i = { Gpusim.Instr.pc = 0x40; opcode = Gpusim.Instr.Ld_global; operands = "R2, [R4]" } in
  check_bool "instr pp" true
    (Astring_contains.contains (Format.asprintf "%a" Gpusim.Instr.pp i) "LDG.E")

(* ---- Misc small behaviours ---- *)

let test_processor_without_tool () =
  let p = Pasta.Processor.create ~device:0 () in
  (* Submitting with no tool installed must be a safe no-op. *)
  Pasta.Processor.submit p ~time_us:0.0
    (Pasta.Event.Memory_alloc { addr = 0; bytes = 64; managed = false });
  Pasta.Processor.set_tool p (Pasta.Tool.default "t");
  Pasta.Processor.clear_tool p;
  check_bool "tool cleared" true (Pasta.Processor.tool p = None);
  check_int "events still counted" 1 (Proc_counter.get p "pasta_events_seen")

let test_registry_replacement () =
  Pasta.Registry.register "replaceme" (fun () -> Pasta.Tool.default "v1");
  Pasta.Registry.register "replaceme" (fun () -> Pasta.Tool.default "v2");
  match Pasta.Registry.find "replaceme" with
  | Some mk -> Alcotest.(check string) "latest wins" "v2" (mk ()).Pasta.Tool.name
  | None -> Alcotest.fail "expected tool"

let test_runner_default_matches_explicit () =
  let count abbr run =
    let device = Gpusim.Device.create Gpusim.Arch.a100 in
    let ctx = Dlfw.Ctx.create device in
    run ctx abbr;
    let n = Gpusim.Device.launches device in
    Dlfw.Ctx.destroy ctx;
    n
  in
  let via_default =
    count "BERT" (fun ctx abbr ->
        ignore (Dlfw.Runner.run_default ctx abbr ~mode:Dlfw.Runner.Inference))
  in
  let via_explicit =
    count "BERT" (fun ctx abbr ->
        let m = Dlfw.Runner.build ctx abbr in
        Dlfw.Runner.run ctx m ~mode:Dlfw.Runner.Inference
          ~iters:(Dlfw.Runner.default_iters ~abbr ~mode:Dlfw.Runner.Inference))
  in
  check_int "run_default = build + run" via_explicit via_default

let prop_warp_strided_in_bounds =
  QCheck.Test.make ~name:"strided warp accesses stay inside the region" ~count:200
    QCheck.(pair (int_range 0 4096) (int_range 1 100))
    (fun (stride, accesses) ->
      let k =
        Gpusim.Kernel.make ~name:"s" ~grid:(Gpusim.Dim3.make 1)
          ~block:(Gpusim.Dim3.make 32)
          ~regions:
            [
              Gpusim.Kernel.region ~base:0x1000 ~bytes:2048 ~accesses
                ~pattern:(Gpusim.Kernel.Strided stride) ();
            ]
          ()
      in
      let rng = Pasta_util.Det_rng.create 17L in
      let ok = ref true in
      Array.iter
        (fun spec ->
          let b = Gpusim.Warp.fill_chunk ~rng ~warp_size:32 spec in
          let addrs = (Gpusim.Warp.cols b).Gpusim.Warp.addrs in
          for i = 0 to b.Gpusim.Warp.b_len - 1 do
            if addrs.{i} < 0x1000 || addrs.{i} >= 0x1000 + 2048 then ok := false
          done)
        (Gpusim.Warp.plan ~max_records_per_region:64 k);
      !ok)

let suite =
  [
    qtest prop_analysis_models_equivalent;
    ("two sessions coexist", `Quick, test_two_sessions_coexist);
    ("annotations route to innermost", `Quick, test_annotations_route_to_innermost);
    ("allocator cache retry", `Quick, test_allocator_cache_retry);
    ("allocator hard OOM", `Quick, test_allocator_hard_oom);
    ("uvm clips to range", `Quick, test_uvm_clips_to_range);
    ("event pp total", `Quick, test_event_pp_total);
    ("all_kinds closed over constructors", `Quick, test_all_kinds_closed);
    ("every kind has a producer", `Quick, test_every_kind_produced);
    ("opencl backend produces the GPU vocabulary", `Quick,
     test_opencl_backend_production);
    ("every kind has a registry consumer", `Quick, test_every_kind_consumed);
    ("new consumers functional", `Quick, test_consumers_functional);
    ("misc pps", `Quick, test_misc_pps);
    ("processor without tool", `Quick, test_processor_without_tool);
    ("registry replacement", `Quick, test_registry_replacement);
    ("runner default matches explicit", `Quick, test_runner_default_matches_explicit);
    qtest prop_warp_strided_in_bounds;
  ]
