(* PASTA core tests: events, normalization, registry, processor, range,
   sessions, knobs, call stacks. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let mk_device ?(arch = Gpusim.Arch.a100) () = Gpusim.Device.create arch

let mk_kernel_info ?(grid_id = 1) ?(name = "k") () =
  {
    Pasta.Event.device_id = 0;
    grid_id;
    stream = 0;
    name;
    grid = Gpusim.Dim3.make 1;
    block = Gpusim.Dim3.make 32;
    shared_bytes = 0;
    arg_ptrs = [];
    py_stack = [];
    native_stack = [];
  }

(* ---- Event ---- *)

let test_event_classification () =
  let ki = mk_kernel_info () in
  check_bool "region is fine-grained" true
    (Pasta.Event.is_fine_grained
       (Pasta.Event.Kernel_region
          { kernel = ki; region = { Pasta.Event.base = 0; extent = 1; accesses = 1; written = false } }));
  check_bool "operator is DL" true
    (Pasta.Event.is_dl_framework (Pasta.Event.Operator { name = "x"; phase = `Enter; seq = 1 }));
  check_bool "launch is neither" false
    (Pasta.Event.is_fine_grained (Pasta.Event.Kernel_launch { info = ki; phase = `Begin }));
  check_string "kind name" "memory_alloc"
    (Pasta.Event.kind_name (Pasta.Event.Memory_alloc { addr = 0; bytes = 1; managed = false }))

let test_event_pp_smoke () =
  let ki = mk_kernel_info () in
  let payloads =
    [
      Pasta.Event.Driver_call { name = "Malloc"; phase = `Enter };
      Pasta.Event.Kernel_launch { info = ki; phase = `Begin };
      Pasta.Event.Memory_copy { bytes = 10; direction = `P2p 1; stream = 0 };
      Pasta.Event.Tensor_alloc { ptr = 0; bytes = 4; pool_allocated = 4; pool_reserved = 8; tag = "t" };
      Pasta.Event.Annotation { label = "r"; phase = `Start };
    ]
  in
  List.iter
    (fun payload ->
      let s = Format.asprintf "%a" Pasta.Event.pp { Pasta.Event.device = 0; time_us = 1.0; payload } in
      check_bool "renders" true (String.length s > 0))
    payloads

(* ---- Objmap ---- *)

let test_objmap_resolution_order () =
  let m = Pasta.Objmap.create () in
  Pasta.Objmap.on_alloc m ~addr:1000 ~bytes:1000 ~managed:true;
  Pasta.Objmap.on_tensor_alloc m ~ptr:1200 ~bytes:100 ~tag:"weights";
  (match Pasta.Objmap.resolve m 1250 with
  | Pasta.Objmap.Tensor { ptr = 1200; bytes = 100; tag = "weights" } -> ()
  | o -> Alcotest.failf "expected tensor, got %s" (Pasta.Objmap.obj_label o));
  (match Pasta.Objmap.resolve m 1100 with
  | Pasta.Objmap.Device_alloc { ptr = 1000; managed = true; _ } -> ()
  | _ -> Alcotest.fail "expected device alloc");
  (match Pasta.Objmap.resolve m 5000 with
  | Pasta.Objmap.Unknown 5000 -> ()
  | _ -> Alcotest.fail "expected unknown");
  Pasta.Objmap.on_tensor_free m ~ptr:1200;
  (match Pasta.Objmap.resolve m 1250 with
  | Pasta.Objmap.Device_alloc _ -> ()
  | _ -> Alcotest.fail "tensor freed, falls back to alloc");
  check_int "live after free" 1 (Pasta.Objmap.live_objects m);
  check_int "map bytes" 16 (Pasta.Objmap.map_bytes m)

let test_objmap_boundaries () =
  let m = Pasta.Objmap.create () in
  Pasta.Objmap.on_alloc m ~addr:100 ~bytes:50 ~managed:false;
  check_bool "first byte" true
    (match Pasta.Objmap.resolve m 100 with Pasta.Objmap.Device_alloc _ -> true | _ -> false);
  check_bool "last byte" true
    (match Pasta.Objmap.resolve m 149 with Pasta.Objmap.Device_alloc _ -> true | _ -> false);
  check_bool "one past end" true
    (match Pasta.Objmap.resolve m 150 with Pasta.Objmap.Unknown _ -> true | _ -> false)

(* ---- Normalize ---- *)

let test_canonical_api () =
  check_string "cuda" "Malloc" (Pasta.Normalize.canonical_api "cudaMalloc");
  check_string "hip" "Malloc" (Pasta.Normalize.canonical_api "hipMalloc");
  check_string "cu driver" "LaunchKernel" (Pasta.Normalize.canonical_api "cuLaunchKernel");
  check_string "hip module launch" "LaunchKernel"
    (Pasta.Normalize.canonical_api "hipModuleLaunchKernel");
  check_string "passthrough" "fooBar" (Pasta.Normalize.canonical_api "fooBar")

let test_normalize_rocm_free () =
  let alloc =
    Pasta.Normalize.of_rocprofiler
      (Vendor.Rocprofiler.Memory_allocate { address = 64; size_delta = 128; agent = 0 })
  in
  (match alloc with
  | [ Pasta.Event.Memory_alloc { addr = 64; bytes = 128; _ } ] -> ()
  | _ -> Alcotest.fail "positive delta should be alloc");
  let free =
    Pasta.Normalize.of_rocprofiler
      (Vendor.Rocprofiler.Memory_allocate { address = 64; size_delta = -128; agent = 0 })
  in
  match free with
  | [ Pasta.Event.Memory_free { addr = 64; bytes = 128 } ] -> ()
  | _ -> Alcotest.fail "negative delta should normalize to free"

let test_normalize_directions () =
  check_bool "h2d" true (Pasta.Normalize.direction_of_kind Gpusim.Device.Host_to_device = `H2d);
  check_bool "peer" true (Pasta.Normalize.direction_of_kind (Gpusim.Device.Peer 3) = `P2p 3)

(* ---- Config ---- *)

let test_config_overrides () =
  Pasta.Config.clear_overrides ();
  check_bool "absent" true (Pasta.Config.get "PASTA_TEST_KEY" = None);
  Pasta.Config.set "PASTA_TEST_KEY" "42";
  Alcotest.(check (option int)) "int" (Some 42) (Pasta.Config.get_int "PASTA_TEST_KEY");
  Pasta.Config.set "PASTA_TEST_KEY" "not_a_number";
  Alcotest.(check (option int)) "bad int" None (Pasta.Config.get_int "PASTA_TEST_KEY");
  Pasta.Config.unset "PASTA_TEST_KEY";
  check_bool "unset" true (Pasta.Config.get "PASTA_TEST_KEY" = None);
  Pasta.Config.set "START_GRID_ID" "7";
  Alcotest.(check (option int)) "start grid" (Some 7) (Pasta.Config.start_grid_id ());
  Pasta.Config.clear_overrides ()

(* ---- Range ---- *)

let test_range_grid_bounds () =
  let r = Pasta.Range.create ~start_grid:10 ~end_grid:20 () in
  check_bool "below" false (Pasta.Range.active r ~grid_id:9);
  check_bool "start inclusive" true (Pasta.Range.active r ~grid_id:10);
  check_bool "end inclusive" true (Pasta.Range.active r ~grid_id:20);
  check_bool "above" false (Pasta.Range.active r ~grid_id:21)

let test_range_annotations () =
  let r = Pasta.Range.create () in
  check_bool "no annotations: everything in range" true (Pasta.Range.active r ~grid_id:1);
  Pasta.Range.annot_start r "x";
  Pasta.Range.annot_end r "x";
  (* Once annotations are used the range becomes annotation-driven. *)
  check_bool "outside annotation" false (Pasta.Range.active r ~grid_id:2);
  Pasta.Range.annot_start r "y";
  check_bool "inside annotation" true (Pasta.Range.active r ~grid_id:3);
  check_int "depth" 1 (Pasta.Range.annotation_depth r);
  Pasta.Range.annot_end r "y";
  Alcotest.check_raises "unbalanced end"
    (Invalid_argument "Range.annot_end: pasta.end without pasta.start (z)") (fun () ->
      Pasta.Range.annot_end r "z")

(* ---- Knobs / Callstack ---- *)

let test_knobs_max () =
  let k = Pasta.Knobs.create Pasta.Knobs.max_mem_referenced_kernel in
  Pasta.Knobs.observe k ~kernel:(mk_kernel_info ~name:"a" ()) ~metric:10;
  Pasta.Knobs.observe k ~kernel:(mk_kernel_info ~name:"b" ()) ~metric:5;
  Pasta.Knobs.observe k ~kernel:(mk_kernel_info ~name:"c" ()) ~metric:10;
  (match Pasta.Knobs.best k with
  | Some (ki, 10) -> check_string "ties keep first" "a" ki.Pasta.Event.name
  | _ -> Alcotest.fail "expected max")

let test_callstack_pp () =
  let ki =
    {
      (mk_kernel_info ()) with
      Pasta.Event.py_stack = [ { Gpusim.Hostctx.file = "run.py"; line = 1; symbol = "main" } ];
      native_stack =
        [ { Gpusim.Hostctx.file = "Blas.cpp"; line = 281; symbol = "addmm_out_cuda_impl" } ];
    }
  in
  let out = Format.asprintf "%a" Pasta.Callstack.pp (Pasta.Callstack.of_kernel ki) in
  check_bool "native frame present" true
    (Astring_contains.contains out "addmm_out_cuda_impl");
  check_bool "python frame present" true (Astring_contains.contains out "run.py:1 main");
  check_bool "libc bottom frames present" true
    (Astring_contains.contains out "__libc_start_main_impl");
  check_int "depth" 2 (Pasta.Callstack.depth (Pasta.Callstack.of_kernel ki))

(* ---- Registry ---- *)

let test_registry () =
  Pasta.Registry.register "test_tool_a" (fun () -> Pasta.Tool.default "test_tool_a");
  Pasta.Registry.register "test_tool_b" (fun () -> Pasta.Tool.default "test_tool_b");
  check_bool "find" true (Pasta.Registry.find "test_tool_a" <> None);
  check_bool "missing" true (Pasta.Registry.find "no_such_tool" = None);
  check_bool "names sorted" true
    (let names = Pasta.Registry.names () in
     List.mem "test_tool_a" names && names = List.sort compare names);
  Pasta.Config.set "PASTA_TOOL" "test_tool_b";
  (match Option.bind (Pasta.Config.tool_name ()) Pasta.Registry.find with
  | Some mk -> check_string "resolved from config" "test_tool_b" (mk ()).Pasta.Tool.name
  | None -> Alcotest.fail "expected tool");
  Pasta.Config.clear_overrides ()

(* ---- Processor ---- *)

let test_processor_registry_updates_out_of_range () =
  let p = Pasta.Processor.create ~range:(Pasta.Range.create ~start_grid:100 ()) ~device:0 () in
  let dispatched = ref 0 in
  Pasta.Processor.set_tool p
    { (Pasta.Tool.default "t") with Pasta.Tool.on_event = (fun _ -> incr dispatched) };
  Pasta.Processor.submit p ~time_us:0.0
    (Pasta.Event.Memory_alloc { addr = 500; bytes = 100; managed = false });
  (* The allocation was out of no range (non-kernel events use annotations
     only), so it dispatches; the registry must be updated either way. *)
  check_bool "registry updated" true
    (match Pasta.Objmap.resolve (Pasta.Processor.objmap p) 550 with
    | Pasta.Objmap.Device_alloc _ -> true
    | _ -> false);
  (* Kernel events below the grid bound must not dispatch. *)
  Pasta.Processor.submit p ~time_us:0.0
    (Pasta.Event.Kernel_launch { info = mk_kernel_info ~grid_id:5 (); phase = `Begin });
  check_int "kernel filtered" 1 !dispatched;
  Pasta.Processor.submit p ~time_us:0.0
    (Pasta.Event.Kernel_launch { info = mk_kernel_info ~grid_id:150 (); phase = `Begin });
  check_int "kernel in range dispatched" 2 !dispatched;
  check_int "seen counts everything" 3 (Proc_counter.get p "pasta_events_seen");
  check_int "kernels counted regardless of range" 2
    (Proc_counter.get p "pasta_kernels_seen")

let test_processor_summaries () =
  let p = Pasta.Processor.create ~range:(Pasta.Range.create ()) ~device:0 () in
  let summaries = ref [] in
  let regions = ref 0 in
  Pasta.Processor.set_tool p
    {
      (Pasta.Tool.default "t") with
      Pasta.Tool.on_mem_summary = (fun _ s -> summaries := s :: !summaries);
      on_event =
        (fun ev ->
          match ev.Pasta.Event.payload with
          | Pasta.Event.Kernel_region _ -> incr regions
          | _ -> ());
    };
  Pasta.Processor.submit p ~time_us:0.0
    (Pasta.Event.Tensor_alloc
       { ptr = 1000; bytes = 512; pool_allocated = 512; pool_reserved = 512; tag = "w" });
  let ki = mk_kernel_info ~grid_id:1 () in
  (* Two regions inside the same tensor must aggregate to one object. *)
  Pasta.Processor.submit_region p ki ~base:1000 ~extent:100 ~accesses:10 ~written:false;
  Pasta.Processor.submit_region p ki ~base:1200 ~extent:100 ~accesses:5 ~written:true;
  Pasta.Processor.flush_kernel_summary p ~time_us:1.0 ki;
  check_int "region events" 2 !regions;
  (match !summaries with
  | [ [ (Pasta.Objmap.Tensor { ptr = 1000; _ }, 15) ] ] -> ()
  | _ -> Alcotest.fail "expected one aggregated object with 15 accesses");
  (* Flushing again without regions is a no-op. *)
  Pasta.Processor.flush_kernel_summary p ~time_us:2.0 ki;
  check_int "no double flush" 1 (List.length !summaries)

let test_processor_access_dispatch () =
  let p = Pasta.Processor.create ~range:(Pasta.Range.create ()) ~device:0 () in
  let accesses = ref 0 in
  Pasta.Processor.set_tool p
    { (Pasta.Tool.default "t") with Pasta.Tool.on_access = (fun _ _ -> incr accesses) };
  let record =
    Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0 ~addrs:[| 0 |] ~sizes:[| 4 |]
      ~warps:[| 0 |] ~weights:[| 1 |] ~writes:(Bytes.make 1 '\000')
  in
  (* Records sit in the bounded buffer until a kernel-end or explicit flush. *)
  let pieces = Gpusim.Warp.pieces () in
  Gpusim.Warp.add_piece pieces record ~pos:0 ~len:1;
  Gpusim.Warp.stamp_pieces pieces 0.0;
  Pasta.Processor.submit_pieces p (mk_kernel_info ()) pieces;
  check_int "record buffered, not yet dispatched" 0 !accesses;
  Pasta.Processor.flush_records p;
  check_int "access dispatched on flush" 1 !accesses;
  Pasta.Processor.flush_records p;
  check_int "flush is idempotent" 1 !accesses;
  check_int "nothing dropped" 0 (Proc_counter.get p "pasta_records_dropped")

(* ---- Session end-to-end ---- *)

let test_session_end_to_end () =
  let device = mk_device () in
  let ctx = Dlfw.Ctx.create device in
  let kernel_ends = ref 0 and tensor_allocs = ref 0 and ops = ref 0 in
  let tool =
    {
      (Pasta.Tool.default "e2e") with
      Pasta.Tool.on_kernel_end = (fun _ _ -> incr kernel_ends);
      on_tensor = (function `Alloc _ -> incr tensor_allocs | `Free _ -> ());
      on_operator = (fun _ phase _ -> if phase = `Enter then incr ops);
    }
  in
  let (), result =
    Pasta.Session.run ~tool device (fun () ->
        let x = Dlfw.Ops.new_tensor ctx [ 8; 8 ] Dlfw.Dtype.F32 in
        let y = Dlfw.Ops.relu ctx x in
        Dlfw.Tensor.release x;
        Dlfw.Tensor.release y)
  in
  check_int "kernel seen" 1 !kernel_ends;
  check_int "tensors seen" 2 !tensor_allocs;
  check_int "operators seen" 1 !ops;
  check_int "session kernels" 1 result.Pasta.Session.kernels;
  check_bool "events flowed" true (result.Pasta.Session.events_seen > 5);
  Dlfw.Ctx.destroy ctx

let test_session_restores_sample_cap () =
  let device = mk_device () in
  Gpusim.Device.set_sample_cap device 99;
  let s = Pasta.Session.attach ~sample_cap:7 ~tool:(Pasta.Tool.default "t") device in
  check_int "cap applied" 7 (Gpusim.Device.sample_cap device);
  ignore (Pasta.Session.detach s);
  check_int "cap restored" 99 (Gpusim.Device.sample_cap device)

let test_session_annotations () =
  let device = mk_device () in
  let ctx = Dlfw.Ctx.create device in
  let in_range = ref 0 in
  let tool =
    { (Pasta.Tool.default "t") with Pasta.Tool.on_kernel_end = (fun _ _ -> incr in_range) }
  in
  let launch () =
    let x = Dlfw.Ops.new_tensor ctx [ 4 ] Dlfw.Dtype.F32 in
    let y = Dlfw.Ops.relu ctx x in
    Dlfw.Tensor.release x;
    Dlfw.Tensor.release y
  in
  let (), _ =
    Pasta.Session.run ~tool device (fun () ->
        launch ();
        Pasta.Session.start ();
        launch ();
        Pasta.Session.end_ ();
        launch ())
  in
  (* Pre-annotation work is in range (the range only becomes
     annotation-driven at the first pasta.start); everything after the
     matching pasta.end is filtered. *)
  check_int "pre-annotation + annotated kernels dispatched" 2 !in_range;
  (* With annotations_only the range starts closed. *)
  in_range := 0;
  let range = Pasta.Range.create ~annotations_only:true () in
  let (), _ =
    Pasta.Session.run ~range ~tool device (fun () ->
        launch ();
        Pasta.Session.start ();
        launch ();
        Pasta.Session.end_ ();
        launch ())
  in
  check_int "annotations_only: only the annotated kernel" 1 !in_range;
  Dlfw.Ctx.destroy ctx

let test_session_backend_defaults () =
  let nv = mk_device () in
  check_bool "nvidia defaults to sanitizer" true
    (Pasta.Backend.default_kind_for nv = Pasta.Backend.Sanitizer);
  let amd = mk_device ~arch:Gpusim.Arch.mi300x () in
  check_bool "amd defaults to rocprofiler" true
    (Pasta.Backend.default_kind_for amd = Pasta.Backend.Rocprofiler);
  (* A Cpu_nvbit tool forces the NVBit backend without an explicit choice. *)
  let tool = Pasta.Tool.default ~fine_grained:Pasta.Tool.Cpu_nvbit "t" in
  let s = Pasta.Session.attach ~tool nv in
  ignore (Pasta.Session.detach s)

let test_backend_invalid_combinations () =
  let nv = mk_device () in
  let proc = Pasta.Processor.create ~device:0 () in
  let b = Pasta.Backend.attach Pasta.Backend.Nvbit nv ~processor:proc in
  Alcotest.check_raises "nvbit cannot run GPU-resident analysis"
    (Invalid_argument "Backend: NVBit supports only CPU-side trace analysis") (fun () ->
      Pasta.Backend.enable_fine_grained b Pasta.Tool.Gpu_accelerated);
  Pasta.Backend.detach b;
  Alcotest.check_raises "rocprofiler on nvidia"
    (Invalid_argument "Rocprofiler.attach: not an AMD device") (fun () ->
      ignore (Pasta.Backend.attach Pasta.Backend.Rocprofiler nv ~processor:proc))

(* [Backend.refusal] is the one check: over every backend, device vendor
   and analysis model, [attach] then [enable_fine_grained] raise exactly
   the message it returns, and succeed when it returns [None]. *)
let test_backend_refusal_is_the_check () =
  List.iter
    (fun arch ->
      List.iter
        (fun kind ->
          List.iter
            (fun mode ->
              let device = mk_device ~arch () in
              let proc = Pasta.Processor.create ~device:0 () in
              let outcome =
                match Pasta.Backend.attach kind device ~processor:proc with
                | exception Invalid_argument m -> Some m
                | b ->
                    let r =
                      match Pasta.Backend.enable_fine_grained b mode with
                      | () -> None
                      | exception Invalid_argument m -> Some m
                    in
                    Pasta.Backend.detach b;
                    r
              in
              Alcotest.(check (option string))
                (Printf.sprintf "%s on %s, %s" (Pasta.Backend.kind_to_string kind)
                   arch.Gpusim.Arch.name (Pasta.Tool.fine_grained_to_string mode))
                outcome
                (Pasta.Backend.refusal kind device mode))
            Pasta.Tool.
              [
                No_fine_grained; Gpu_accelerated; Gpu_parallel; Cpu_sanitizer; Cpu_nvbit;
                Instruction_level;
              ])
        Pasta.Backend.[ Sanitizer; Nvbit; Rocprofiler; Xprof; Opencl ])
    Gpusim.Arch.[ a100; mi300x; tpu_v4 ]

(* A session whose second backend refuses the tool raises before it
   creates anything: no trace file appears. *)
let test_refused_session_touches_nothing () =
  let path = Filename.temp_file "pasta_refused" ".ptrace" in
  Sys.remove path;
  let specs =
    [
      (Pasta.Backend.Sanitizer, Gpusim.Device.create ~id:0 Gpusim.Arch.a100);
      (Pasta.Backend.Xprof, Gpusim.Device.create ~id:1 Gpusim.Arch.tpu_v4);
    ]
  in
  let tool _ _ = Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_accelerated "t" in
  Alcotest.check_raises "refused"
    (Invalid_argument "Backend: TPUs expose no fine-grained instrumentation") (fun () ->
      ignore (Pasta.Session.attach_multi ~capture:path ~tool specs));
  check_bool "no trace written" false (Sys.file_exists path)

let test_dl_hooks_device_filter () =
  let d0 = Gpusim.Device.create ~id:0 Gpusim.Arch.a100 in
  let d1 = Gpusim.Device.create ~id:1 Gpusim.Arch.a100 in
  let ctx1 = Dlfw.Ctx.create d1 in
  let seen = ref 0 in
  let tool = { (Pasta.Tool.default "t") with Pasta.Tool.on_tensor = (fun _ -> incr seen) } in
  let s = Pasta.Session.attach ~tool d0 in
  (* Tensor traffic on device 1 must not reach device 0's session. *)
  let t = Dlfw.Ops.new_tensor ctx1 [ 4 ] Dlfw.Dtype.F32 in
  Dlfw.Tensor.release t;
  ignore (Pasta.Session.detach s);
  check_int "foreign-device tensors filtered" 0 !seen;
  Dlfw.Ctx.destroy ctx1

let suite =
  [
    ("event classification", `Quick, test_event_classification);
    ("event pp smoke", `Quick, test_event_pp_smoke);
    ("objmap resolution order", `Quick, test_objmap_resolution_order);
    ("objmap boundaries", `Quick, test_objmap_boundaries);
    ("canonical api", `Quick, test_canonical_api);
    ("normalize rocm free", `Quick, test_normalize_rocm_free);
    ("normalize directions", `Quick, test_normalize_directions);
    ("config overrides", `Quick, test_config_overrides);
    ("range grid bounds", `Quick, test_range_grid_bounds);
    ("range annotations", `Quick, test_range_annotations);
    ("knobs max", `Quick, test_knobs_max);
    ("callstack pp", `Quick, test_callstack_pp);
    ("registry", `Quick, test_registry);
    ("processor registry out of range", `Quick, test_processor_registry_updates_out_of_range);
    ("processor summaries", `Quick, test_processor_summaries);
    ("processor access dispatch", `Quick, test_processor_access_dispatch);
    ("session end to end", `Quick, test_session_end_to_end);
    ("session restores sample cap", `Quick, test_session_restores_sample_cap);
    ("session annotations", `Quick, test_session_annotations);
    ("session backend defaults", `Quick, test_session_backend_defaults);
    ("backend invalid combinations", `Quick, test_backend_invalid_combinations);
    ("backend refusal is the one check", `Quick, test_backend_refusal_is_the_check);
    ("refused session touches nothing", `Quick, test_refused_session_touches_nothing);
    ("dl hooks device filter", `Quick, test_dl_hooks_device_filter);
  ]
