module D = Gpusim.Device

let strip_prefix s p =
  if String.length s >= String.length p && String.sub s 0 (String.length p) = p then
    Some (String.sub s (String.length p) (String.length s - String.length p))
  else None

(* The OpenCL surface names neither its verbs nor its objects like the
   CUDA-ish runtimes do; map each cl* call onto the canonical vocabulary
   the other vendors already normalize to. *)
let canonical_cl = function
  | "EnqueueNDRangeKernel" -> "LaunchKernel"
  | "CreateBuffer" -> "Malloc"
  | "SVMAlloc" -> "MallocManaged"
  | "ReleaseMemObject" -> "Free"
  | "EnqueueCopyBuffer" -> "Memcpy"
  | "EnqueueFillBuffer" -> "Memset"
  | "EnqueueMapBuffer" -> "MapBuffer"
  | "EnqueueUnmapMemObject" -> "UnmapBuffer"
  | "Finish" -> "StreamSynchronize"
  | "WaitForEvents" -> "DeviceSynchronize"
  | r -> r

let canonical_api name =
  match strip_prefix name "cuda" with
  | Some rest -> rest
  | None -> (
      match strip_prefix name "hip" with
      | Some rest -> (
          match rest with "ModuleLaunchKernel" -> "LaunchKernel" | r -> r)
      | None -> (
          match strip_prefix name "TpuExecutor_" with
          | Some rest -> rest
          | None -> (
              match strip_prefix name "cl" with
              | Some rest -> canonical_cl rest
              | None -> (
                  match strip_prefix name "cu" with
                  | Some rest -> rest
                  | None -> name))))

let direction_of_kind = function
  | D.Host_to_device -> `H2d
  | D.Device_to_host -> `D2h
  | D.Device_to_device -> `D2d
  | D.Peer d -> `P2p d

let launch_payload info phase =
  Event.Kernel_launch { info = Event.kernel_info_of_launch info; phase }

let end_summary (s : D.exec_stats) =
  {
    Event.duration_us = s.D.duration_us;
    true_accesses = s.D.true_accesses;
    faulted_pages = s.D.faulted_pages;
  }

(* Intra-kernel region spans arrive on three vendor planes (Sanitizer
   region callbacks, one per launch; the ROCm marker plane and OpenCL
   command markers, one per boundary) with identical timing payloads. *)
let region_span (span : Gpusim.Instrpass.timed) =
  let module I = Gpusim.Instrpass in
  {
    Event.rg_id = span.I.t_id;
    rg_label = span.I.t_label;
    rg_start_pc = span.I.t_start_pc;
    rg_end_pc = span.I.t_end_pc;
    rg_mem_region = span.I.t_mem_region;
    rg_start_us = span.I.t_start_us;
    rg_time_us = span.I.t_time_us;
    rg_bytes = span.I.t_bytes;
    rg_flops = span.I.t_flops;
  }

let region_payloads info span phase =
  let kernel = Event.kernel_info_of_launch info and span = region_span span in
  match phase with
  | `Enter -> [ Event.Region_enter { kernel; span } ]
  | `Exit -> [ Event.Region_exit { kernel; span } ]

let of_sanitizer (cb : Vendor.Sanitizer.callback) =
  match cb with
  | Vendor.Sanitizer.Api { name; phase } ->
      [ Event.Driver_call { name = canonical_api name; phase } ]
  | Launch_begin info -> [ launch_payload info `Begin ]
  | Launch_end (info, stats) -> [ launch_payload info (`End (end_summary stats)) ]
  | Memcpy_cb { bytes; kind; stream; _ } ->
      [ Event.Memory_copy { bytes; direction = direction_of_kind kind; stream } ]
  | Memset_cb { addr; bytes; value; _ } -> [ Event.Memory_set { addr; bytes; value } ]
  | Alloc_cb alloc ->
      [
        Event.Memory_alloc
          {
            addr = alloc.Gpusim.Device_mem.base;
            bytes = alloc.Gpusim.Device_mem.bytes;
            managed = alloc.Gpusim.Device_mem.managed;
          };
      ]
  | Free_cb alloc ->
      [
        Event.Memory_free
          { addr = alloc.Gpusim.Device_mem.base; bytes = alloc.Gpusim.Device_mem.bytes };
      ]
  | Sync_cb scope -> [ Event.Synchronization { scope } ]
  | Region_cb { info; spans } ->
      let kernel = Event.kernel_info_of_launch info in
      Array.fold_right
        (fun s acc ->
          let span = region_span s in
          Event.Region_enter { kernel; span } :: Event.Region_exit { kernel; span } :: acc)
        spans []

let of_nvbit (ev : Vendor.Nvbit.cuda_event) =
  match ev with
  | Vendor.Nvbit.Ev_launch_begin info -> [ launch_payload info `Begin ]
  | Ev_launch_end (info, stats) -> [ launch_payload info (`End (end_summary stats)) ]
  | Ev_memcpy { bytes; kind } ->
      [ Event.Memory_copy { bytes; direction = direction_of_kind kind; stream = 0 } ]
  | Ev_malloc alloc ->
      [
        Event.Memory_alloc
          {
            addr = alloc.Gpusim.Device_mem.base;
            bytes = alloc.Gpusim.Device_mem.bytes;
            managed = alloc.Gpusim.Device_mem.managed;
          };
      ]
  | Ev_free alloc ->
      [
        Event.Memory_free
          { addr = alloc.Gpusim.Device_mem.base; bytes = alloc.Gpusim.Device_mem.bytes };
      ]
  | Ev_sync -> [ Event.Synchronization { scope = `Device } ]

let of_rocprofiler (r : Vendor.Rocprofiler.record) =
  match r with
  | Vendor.Rocprofiler.Hip_api { name; phase } ->
      [ Event.Runtime_call { name = canonical_api name; phase } ]
  | Kernel_dispatch { dispatch; phase = `Begin; _ } -> [ launch_payload dispatch `Begin ]
  | Kernel_dispatch { dispatch; phase = `End; stats = Some s; _ } ->
      [ launch_payload dispatch (`End (end_summary s)) ]
  | Kernel_dispatch { phase = `End; stats = None; _ } -> []
  | Memory_copy { bytes; kind } ->
      [ Event.Memory_copy { bytes; direction = direction_of_kind kind; stream = 0 } ]
  | Memory_allocate { address; size_delta; _ } ->
      (* The AMD convention reports release as a negative-sized allocation;
         normalize to distinct alloc/free events. *)
      if size_delta >= 0 then
        [ Event.Memory_alloc { addr = address; bytes = size_delta; managed = false } ]
      else [ Event.Memory_free { addr = address; bytes = -size_delta } ]
  | Scratch_memory _ -> []
  | Marker_region { info; span; phase } -> region_payloads info span phase
  | Sync_event -> [ Event.Synchronization { scope = `Device } ]

let of_xprof (r : Vendor.Xprof.record) =
  match r with
  | Vendor.Xprof.Program_execute { dispatch; phase = `Begin; _ } ->
      [ launch_payload dispatch `Begin ]
  | Program_execute { dispatch; phase = `End; stats = Some s; _ } ->
      [ launch_payload dispatch (`End (end_summary s)) ]
  | Program_execute { phase = `End; stats = None; _ } -> []
  | Buffer_allocate { address; bytes } ->
      [ Event.Memory_alloc { addr = address; bytes; managed = false } ]
  | Buffer_deallocate { address; bytes } ->
      [ Event.Memory_free { addr = address; bytes } ]
  | Infeed { bytes } ->
      [ Event.Memory_copy { bytes; direction = `H2d; stream = 0 } ]
  | Outfeed { bytes } ->
      [ Event.Memory_copy { bytes; direction = `D2h; stream = 0 } ]
  | Step_marker -> [ Event.Synchronization { scope = `Device } ]
  | Systolic_array_active _ ->
      (* Vendor-unique plane with no cross-accelerator semantics. *)
      []

let of_opencl (r : Vendor.Opencl.record) =
  match r with
  | Vendor.Opencl.Platform_api { name; phase } ->
      [ Event.Driver_call { name = canonical_api name; phase } ]
  (* The queued/submitted/running/complete progression folds onto the
     two-edged launch vocabulary: [`Running] is the begin edge,
     [`Complete] (which carries the stats) the end edge; the queue
     plumbing states are vendor-unique and drop here. *)
  | Command_status { command = Ndrange { dispatch; _ }; status = `Running; _ } ->
      [ launch_payload dispatch `Begin ]
  | Command_status { command = Ndrange { dispatch; stats = Some s }; status = `Complete; _ }
    ->
      [ launch_payload dispatch (`End (end_summary s)) ]
  | Command_status { command = Ndrange _; _ } -> []
  | Command_status { command = Copy_buffer { bytes; peer }; status = `Complete; queue; _ }
    ->
      let direction = match peer with Some d -> `P2p d | None -> `D2d in
      [ Event.Memory_copy { bytes; direction; stream = queue } ]
  | Command_status
      { command = Fill_buffer { address; bytes; value }; status = `Complete; _ } ->
      [ Event.Memory_set { addr = address; bytes; value } ]
  | Command_status { command = Copy_buffer _ | Fill_buffer _; _ } -> []
  (* Refcount edges: only creation (to 1) and destruction (to 0) are
     alloc/free events — the retain/release pairs inside map windows are
     lifetime plumbing and must not leak past normalization. *)
  | Buffer_retain { address; bytes; refcount = 1 } ->
      [ Event.Memory_alloc { addr = address; bytes; managed = false } ]
  | Buffer_retain _ -> []
  | Buffer_release { address; bytes; refcount = 0 } ->
      [ Event.Memory_free { addr = address; bytes } ]
  | Buffer_release _ -> []
  (* Mapped windows carry the transfer weight on exactly one edge: a
     write-mapped window flushes host->device at unmap, a read-mapped
     window materializes device->host at map.  The other edge weighs
     nothing. *)
  | Map_window { bytes; write = true; phase = `Unmap; queue; _ } ->
      [ Event.Memory_copy { bytes; direction = `H2d; stream = queue } ]
  | Map_window { bytes; write = false; phase = `Map; queue; _ } ->
      [ Event.Memory_copy { bytes; direction = `D2h; stream = queue } ]
  | Map_window _ -> []
  | Queue_finish { queue = Some q } -> [ Event.Synchronization { scope = `Stream q } ]
  | Queue_finish { queue = None } -> [ Event.Synchronization { scope = `Device } ]
  | Region_marker { info; span; phase } -> region_payloads info span phase
