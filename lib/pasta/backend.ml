module D = Gpusim.Device

type kind = Sanitizer | Nvbit | Rocprofiler | Xprof | Opencl

let kind_to_string = function
  | Sanitizer -> "compute-sanitizer"
  | Nvbit -> "nvbit"
  | Rocprofiler -> "rocprofiler-sdk"
  | Xprof -> "xprof"
  | Opencl -> "opencl"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "compute-sanitizer" | "sanitizer" -> Some Sanitizer
  | "nvbit" -> Some Nvbit
  | "rocprofiler-sdk" | "rocprofiler" -> Some Rocprofiler
  | "xprof" -> Some Xprof
  | "opencl" | "cl" -> Some Opencl
  | _ -> None

let default_kind_for ?fine_grained device =
  match (fine_grained, (D.arch device).Gpusim.Arch.vendor) with
  | Some Tool.Cpu_nvbit, _ -> Nvbit
  | _, Gpusim.Arch.Nvidia -> Sanitizer
  | _, Gpusim.Arch.Amd -> Rocprofiler
  | _, Gpusim.Arch.Google -> Xprof

type session =
  | S_sanitizer of Vendor.Sanitizer.t
  | S_nvbit of Vendor.Nvbit.t
  | S_rocprofiler of Vendor.Rocprofiler.t
  | S_xprof of Vendor.Xprof.t
  | S_opencl of Vendor.Opencl.t

type t = { kind : kind; device : D.t; session : session; processor : Processor.t }

(* The one check behind [attach] and [enable_fine_grained]: first the
   device the backend loads against, then the instrumentation the analysis
   model needs. *)
let refusal kind device mode =
  let nvidia name =
    match (D.arch device).Gpusim.Arch.vendor with
    | Gpusim.Arch.Nvidia -> None
    | Gpusim.Arch.Amd | Gpusim.Arch.Google -> Some (name ^ ": requires an NVIDIA device")
  in
  let on_device =
    match kind with
    | Sanitizer -> nvidia "Backend.attach(Sanitizer)"
    | Nvbit -> nvidia "Backend.attach(Nvbit)"
    | Rocprofiler -> Vendor.Rocprofiler.attach_refusal device
    | Xprof -> Vendor.Xprof.attach_refusal device
    | Opencl -> Vendor.Opencl.attach_refusal device
  in
  match on_device with
  | Some _ -> on_device
  | None -> (
      match (mode, kind) with
      | Tool.No_fine_grained, _
      | Tool.Gpu_accelerated, (Sanitizer | Rocprofiler | Opencl)
      | (Tool.Gpu_parallel | Tool.Cpu_sanitizer | Tool.Instruction_level), Sanitizer
      | Tool.Cpu_nvbit, Nvbit ->
          None
      | Tool.Gpu_accelerated, Nvbit -> Some "Backend: NVBit supports only CPU-side trace analysis"
      | _, Xprof -> Some "Backend: TPUs expose no fine-grained instrumentation"
      | Tool.Gpu_parallel, _ -> Some "Backend: parallel device analysis needs the Sanitizer backend"
      | Tool.Cpu_sanitizer, _ -> Some "Backend: CPU-sanitizer analysis needs the Sanitizer backend"
      | Tool.Cpu_nvbit, _ -> Some "Backend: CPU-NVBit analysis needs the NVBit backend"
      | Tool.Instruction_level, _ ->
          Some "Backend: instruction-level analysis needs the Sanitizer backend")

(* The event-handler layer: adapt one vendor callback into normalized
   submissions.  The enclosing Handler span (begun at the vendor callback
   boundary, see [attach] and the feeders) captures normalization plus
   pump; dispatch time inside the processor is charged to its own layer by
   the telemetry stack discipline. *)
let pump t payloads =
  Processor.submit_all t.processor ~time_us:(D.now_us t.device) payloads

let attach kind device ~processor =
  Option.iter invalid_arg (refusal kind device Tool.No_fine_grained);
  match kind with
  | Sanitizer ->
      let s = Vendor.Sanitizer.attach device in
      List.iter
        (Vendor.Sanitizer.enable_domain s)
        [
          Vendor.Sanitizer.Driver_api;
          Vendor.Sanitizer.Launch;
          Vendor.Sanitizer.Memcpy;
          Vendor.Sanitizer.Memset;
          Vendor.Sanitizer.Memory;
          Vendor.Sanitizer.Synchronize;
        ];
      let t = { kind; device; session = S_sanitizer s; processor } in
      Vendor.Sanitizer.set_callback s (fun cb ->
          Telemetry.begin_span Telemetry.Handler "handler.sanitizer";
          pump t (Normalize.of_sanitizer cb);
          Telemetry.end_span Telemetry.Handler);
      t
  | Nvbit ->
      let s = Vendor.Nvbit.attach device in
      let t = { kind; device; session = S_nvbit s; processor } in
      Vendor.Nvbit.at_cuda_event s (fun ev ->
          Telemetry.begin_span Telemetry.Handler "handler.nvbit";
          pump t (Normalize.of_nvbit ev);
          Telemetry.end_span Telemetry.Handler);
      t
  | Rocprofiler ->
      let s = Vendor.Rocprofiler.attach device in
      let t = { kind; device; session = S_rocprofiler s; processor } in
      Vendor.Rocprofiler.configure_callback s (fun r ->
          Telemetry.begin_span Telemetry.Handler "handler.rocprofiler";
          pump t (Normalize.of_rocprofiler r);
          Telemetry.end_span Telemetry.Handler);
      t
  | Xprof ->
      let s = Vendor.Xprof.attach device in
      let t = { kind; device; session = S_xprof s; processor } in
      Vendor.Xprof.configure_callback s (fun r ->
          Telemetry.begin_span Telemetry.Handler "handler.xprof";
          pump t (Normalize.of_xprof r);
          Telemetry.end_span Telemetry.Handler);
      t
  | Opencl ->
      let s = Vendor.Opencl.attach device in
      let t = { kind; device; session = S_opencl s; processor } in
      Vendor.Opencl.configure_callback s (fun r ->
          Telemetry.begin_span Telemetry.Handler "handler.opencl";
          pump t (Normalize.of_opencl r);
          Telemetry.end_span Telemetry.Handler);
      t

let detach t =
  match t.session with
  | S_sanitizer s -> Vendor.Sanitizer.detach s
  | S_nvbit s -> Vendor.Nvbit.detach s
  | S_rocprofiler s -> Vendor.Rocprofiler.detach s
  | S_xprof s -> Vendor.Xprof.detach s
  | S_opencl s -> Vendor.Opencl.detach s

let phases t =
  match t.session with
  | S_sanitizer s -> Vendor.Sanitizer.phases s
  | S_nvbit s -> Vendor.Nvbit.phases s
  | S_rocprofiler s -> Vendor.Rocprofiler.phases s
  | S_xprof s -> Vendor.Xprof.phases s
  | S_opencl s -> Vendor.Opencl.phases s

let region_feeder t (info : D.launch_info) (r : Gpusim.Kernel.region) =
  Telemetry.begin_span Telemetry.Handler "handler.region";
  Processor.submit_region t.processor
    (Event.kernel_info_of_launch info)
    ~base:r.Gpusim.Kernel.base ~extent:r.Gpusim.Kernel.bytes
    ~accesses:r.Gpusim.Kernel.accesses ~written:r.Gpusim.Kernel.write;
  Telemetry.end_span Telemetry.Handler

let completion_feeder t (info : D.launch_info) (_ : D.exec_stats) =
  Telemetry.begin_span Telemetry.Handler "handler.kernel_complete";
  Processor.flush_kernel_summary t.processor ~time_us:(D.now_us t.device)
    (Event.kernel_info_of_launch info);
  Telemetry.end_span Telemetry.Handler

let mem_access (a : Gpusim.Warp.access) =
  {
    Event.addr = a.Gpusim.Warp.addr;
    size = a.Gpusim.Warp.size;
    write = a.Gpusim.Warp.write;
    pc = a.Gpusim.Warp.pc;
    warp = a.Gpusim.Warp.warp_id;
    weight = a.Gpusim.Warp.weight;
  }

let pieces_feeder t (info : D.launch_info) pieces =
  Telemetry.begin_span Telemetry.Handler "handler.pieces";
  Processor.submit_pieces t.processor (Event.kernel_info_of_launch info) pieces;
  Telemetry.end_span Telemetry.Handler

let parallel_completion_feeder t (info : D.launch_info) (_ : D.exec_stats) =
  Telemetry.begin_span Telemetry.Handler "handler.parallel_complete";
  Processor.flush_parallel_summary t.processor ~time_us:(D.now_us t.device)
    (Event.kernel_info_of_launch info);
  Telemetry.end_span Telemetry.Handler

let enable_fine_grained t mode =
  Option.iter invalid_arg (refusal t.kind t.device mode);
  let map_bytes () = Objmap.map_bytes (Processor.objmap t.processor) in
  match (mode, t.session) with
  | Tool.No_fine_grained, _ -> ()
  | Tool.Gpu_accelerated, S_sanitizer s ->
      Vendor.Sanitizer.patch_module s
        (Vendor.Sanitizer.Device_analysis
           {
             map_bytes;
             device_fn = region_feeder t;
             on_kernel_complete = completion_feeder t;
           })
  | Tool.Gpu_accelerated, S_rocprofiler s ->
      Vendor.Rocprofiler.patch_kernels s ~map_bytes ~device_fn:(region_feeder t)
        ~on_kernel_complete:(completion_feeder t)
  | Tool.Gpu_accelerated, S_opencl s ->
      Vendor.Opencl.patch_kernels s ~map_bytes ~device_fn:(region_feeder t)
        ~on_kernel_complete:(completion_feeder t)
  | Tool.Gpu_parallel, S_sanitizer s ->
      Vendor.Sanitizer.patch_module s
        (Vendor.Sanitizer.Parallel_analysis
           {
             map_bytes;
             on_pieces = pieces_feeder t;
             on_kernel_complete = parallel_completion_feeder t;
           })
  | Tool.Cpu_sanitizer, S_sanitizer s ->
      Vendor.Sanitizer.patch_module s
        (Vendor.Sanitizer.Host_analysis
           {
             buffer_records = Vendor.Sanitizer.default_buffer_records;
             on_pieces = pieces_feeder t;
             per_record_us = Gpusim.Costmodel.sanitizer_host_per_record_us;
           })
  | Tool.Cpu_nvbit, S_nvbit s ->
      Vendor.Nvbit.instrument_memory s ~on_pieces:(pieces_feeder t) ()
  | Tool.Instruction_level, S_sanitizer s ->
      Vendor.Sanitizer.patch_module s
        (Vendor.Sanitizer.Instruction_analysis
           {
             classes = Vendor.Sanitizer.all_instr_classes;
             on_profile =
               (fun info profile ->
                 Telemetry.begin_span Telemetry.Handler "handler.profile";
                 Processor.submit_profile t.processor ~time_us:(D.now_us t.device)
                   (Event.kernel_info_of_launch info)
                   profile;
                 Telemetry.end_span Telemetry.Handler);
             on_shared_access =
               Some
                 (fun info a ->
                   Telemetry.begin_span Telemetry.Handler "handler.shared";
                   Processor.submit t.processor ~time_us:(D.now_us t.device)
                     (Event.Shared_access
                        { kernel = Event.kernel_info_of_launch info; access = mem_access a });
                   Telemetry.end_span Telemetry.Handler);
             on_barrier =
               Some
                 (fun info count ->
                   Telemetry.begin_span Telemetry.Handler "handler.barrier";
                   Processor.submit t.processor ~time_us:(D.now_us t.device)
                     (Event.Barrier
                        { kernel = Event.kernel_info_of_launch info; count });
                   Telemetry.end_span Telemetry.Handler);
           })
  | _ -> assert false (* [refusal] refused every other pair above *)
