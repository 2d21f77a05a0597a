type api_phase = [ `Enter | `Exit ]
type copy_direction = [ `H2d | `D2h | `D2d | `P2p of int ]

let pp_direction ppf = function
  | `H2d -> Format.pp_print_string ppf "HtoD"
  | `D2h -> Format.pp_print_string ppf "DtoH"
  | `D2d -> Format.pp_print_string ppf "DtoD"
  | `P2p d -> Format.fprintf ppf "PtoP(dev%d)" d

type kernel_info = {
  device_id : int;
  grid_id : int;
  stream : int;
  name : string;
  grid : Gpusim.Dim3.t;
  block : Gpusim.Dim3.t;
  shared_bytes : int;
  arg_ptrs : int list;
  py_stack : Gpusim.Hostctx.frame list;
  native_stack : Gpusim.Hostctx.frame list;
}

let kernel_info_of_launch (li : Gpusim.Device.launch_info) =
  let k = li.Gpusim.Device.kernel in
  {
    device_id = li.Gpusim.Device.device_id;
    grid_id = li.Gpusim.Device.grid_id;
    stream = li.Gpusim.Device.stream;
    name = k.Gpusim.Kernel.name;
    grid = k.Gpusim.Kernel.grid;
    block = k.Gpusim.Kernel.block;
    shared_bytes = k.Gpusim.Kernel.shared_bytes;
    arg_ptrs = k.Gpusim.Kernel.arg_ptrs;
    py_stack = li.Gpusim.Device.py_stack;
    native_stack = li.Gpusim.Device.native_stack;
  }

type kernel_end_summary = {
  duration_us : float;
  true_accesses : int;
  faulted_pages : int;
}

type mem_access = {
  addr : int;
  size : int;
  write : bool;
  pc : int;
  warp : int;
  weight : int;
}

type region_summary = { base : int; extent : int; accesses : int; written : bool }

type region_span = {
  rg_id : int;
  rg_label : string;
  rg_start_pc : int;
  rg_end_pc : int;
  rg_mem_region : int;
  rg_start_us : float;
  rg_time_us : float;
  rg_bytes : int;
  rg_flops : float;
}

type payload =
  | Driver_call of { name : string; phase : api_phase }
  | Runtime_call of { name : string; phase : api_phase }
  | Kernel_launch of { info : kernel_info; phase : [ `Begin | `End of kernel_end_summary ] }
  | Memory_copy of { bytes : int; direction : copy_direction; stream : int }
  | Memory_set of { addr : int; bytes : int; value : int }
  | Memory_alloc of { addr : int; bytes : int; managed : bool }
  | Memory_free of { addr : int; bytes : int }
  | Synchronization of { scope : [ `Device | `Stream of int ] }
  | Device_summary of { kernel : kernel_info; summary : Devagg.summary }
  | Shared_access of { kernel : kernel_info; access : mem_access }
  | Kernel_region of { kernel : kernel_info; region : region_summary }
  | Barrier of { kernel : kernel_info; count : int }
  | Kernel_profile of { kernel : kernel_info; profile : Gpusim.Kernel.profile }
  | Operator of { name : string; phase : api_phase; seq : int }
  | Tensor_alloc of { ptr : int; bytes : int; pool_allocated : int; pool_reserved : int; tag : string }
  | Tensor_free of { ptr : int; bytes : int; pool_allocated : int; pool_reserved : int }
  | Annotation of { label : string; phase : [ `Start | `End ] }
  | Tool_quarantined of { tool : string; failures : int }
  | Region_enter of { kernel : kernel_info; span : region_span }
  | Region_exit of { kernel : kernel_info; span : region_span }

type t = { device : int; time_us : float; payload : payload }

let kind_name = function
  | Driver_call _ -> "driver_call"
  | Runtime_call _ -> "runtime_call"
  | Kernel_launch _ -> "kernel_launch"
  | Memory_copy _ -> "memory_copy"
  | Memory_set _ -> "memory_set"
  | Memory_alloc _ -> "memory_alloc"
  | Memory_free _ -> "memory_free"
  | Synchronization _ -> "synchronization"
  | Device_summary _ -> "device_summary"
  | Shared_access _ -> "shared_access"
  | Kernel_region _ -> "kernel_region"
  | Barrier _ -> "barrier"
  | Kernel_profile _ -> "kernel_profile"
  | Operator _ -> "operator"
  | Tensor_alloc _ -> "tensor_alloc"
  | Tensor_free _ -> "tensor_free"
  | Annotation _ -> "annotation"
  | Tool_quarantined _ -> "tool_quarantined"
  | Region_enter _ -> "region_enter"
  | Region_exit _ -> "region_exit"

(* One name per [payload] constructor, in declaration order.  The
   coverage suite pattern-matches a sample of every constructor against
   this list, so a new constructor that is not added here fails the
   build (via [kind_name]) and then the tests. *)
let all_kinds =
  [
    "driver_call";
    "runtime_call";
    "kernel_launch";
    "memory_copy";
    "memory_set";
    "memory_alloc";
    "memory_free";
    "synchronization";
    "device_summary";
    "shared_access";
    "kernel_region";
    "barrier";
    "kernel_profile";
    "operator";
    "tensor_alloc";
    "tensor_free";
    "annotation";
    "tool_quarantined";
    "region_enter";
    "region_exit";
  ]

let update_objmap m = function
  | Memory_alloc { addr; bytes; managed } -> Objmap.on_alloc m ~addr ~bytes ~managed
  | Memory_free { addr; _ } -> Objmap.on_free m ~addr
  | Tensor_alloc { ptr; bytes; tag; _ } -> Objmap.on_tensor_alloc m ~ptr ~bytes ~tag
  | Tensor_free { ptr; _ } -> Objmap.on_tensor_free m ~ptr
  | _ -> ()

let is_fine_grained = function
  | Device_summary _ | Shared_access _ | Kernel_region _ | Barrier _
  | Kernel_profile _ | Region_enter _ | Region_exit _ ->
      true
  | _ -> false

let is_dl_framework = function
  | Operator _ | Tensor_alloc _ | Tensor_free _ | Annotation _ -> true
  | _ -> false

let pp_phase ppf = function
  | `Enter -> Format.pp_print_string ppf "enter"
  | `Exit -> Format.pp_print_string ppf "exit"

let pp ppf { device; time_us; payload } =
  Format.fprintf ppf "[dev%d %.1fus] " device time_us;
  match payload with
  | Driver_call { name; phase } -> Format.fprintf ppf "driver %s (%a)" name pp_phase phase
  | Runtime_call { name; phase } -> Format.fprintf ppf "runtime %s (%a)" name pp_phase phase
  | Kernel_launch { info; phase = `Begin } ->
      Format.fprintf ppf "launch #%d %s grid=%a" info.grid_id info.name Gpusim.Dim3.pp info.grid
  | Kernel_launch { info; phase = `End s } ->
      Format.fprintf ppf "launch-end #%d %s %.1fus %d accesses" info.grid_id info.name
        s.duration_us s.true_accesses
  | Memory_copy { bytes; direction; stream } ->
      Format.fprintf ppf "memcpy %a %a (stream %d)" Pasta_util.Bytesize.pp bytes
        pp_direction direction stream
  | Memory_set { addr; bytes; value } ->
      Format.fprintf ppf "memset 0x%x %a = %d" addr Pasta_util.Bytesize.pp bytes value
  | Memory_alloc { addr; bytes; managed } ->
      Format.fprintf ppf "malloc%s 0x%x %a"
        (if managed then "(managed)" else "")
        addr Pasta_util.Bytesize.pp bytes
  | Memory_free { addr; bytes } ->
      Format.fprintf ppf "free 0x%x %a" addr Pasta_util.Bytesize.pp bytes
  | Synchronization { scope = `Device } -> Format.fprintf ppf "deviceSynchronize"
  | Synchronization { scope = `Stream s } -> Format.fprintf ppf "streamSynchronize(%d)" s
  | Device_summary { kernel; summary } ->
      Format.fprintf ppf "device-summary %s %a" kernel.name Devagg.pp summary
  | Shared_access { kernel; _ } -> Format.fprintf ppf "smem %s" kernel.name
  | Kernel_region { kernel; region } ->
      Format.fprintf ppf "region %s 0x%x+%a %d accesses" kernel.name region.base
        Pasta_util.Bytesize.pp region.extent region.accesses
  | Barrier { kernel; count } -> Format.fprintf ppf "barrier %s x%d" kernel.name count
  | Kernel_profile { kernel; profile } ->
      Format.fprintf ppf "profile %s branches=%d shared=%d" kernel.name
        profile.Gpusim.Kernel.branches profile.Gpusim.Kernel.shared_accesses
  | Operator { name; phase; seq } ->
      Format.fprintf ppf "op %s (%a) seq=%d" name pp_phase phase seq
  | Tensor_alloc { ptr; bytes; tag; _ } ->
      Format.fprintf ppf "tensor+ %s 0x%x %a" tag ptr Pasta_util.Bytesize.pp bytes
  | Tensor_free { ptr; bytes; _ } ->
      Format.fprintf ppf "tensor- 0x%x %a" ptr Pasta_util.Bytesize.pp bytes
  | Annotation { label; phase } ->
      Format.fprintf ppf "pasta.%s(%s)"
        (match phase with `Start -> "start" | `End -> "end")
        label
  | Tool_quarantined { tool; failures } ->
      Format.fprintf ppf "tool %s quarantined after %d failures" tool failures
  | Region_enter { kernel; span } ->
      Format.fprintf ppf "region-enter %s/%s [%x,%x) @%.3fus" kernel.name
        span.rg_label span.rg_start_pc span.rg_end_pc span.rg_start_us
  | Region_exit { kernel; span } ->
      Format.fprintf ppf "region-exit %s/%s %.3fus %a %.0f flops" kernel.name
        span.rg_label span.rg_time_us Pasta_util.Bytesize.pp span.rg_bytes
        span.rg_flops
