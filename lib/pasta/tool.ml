type fine_grained =
  | No_fine_grained
  | Gpu_accelerated
  | Gpu_parallel
  | Cpu_sanitizer
  | Cpu_nvbit
  | Instruction_level

let fine_grained_to_string = function
  | No_fine_grained -> "none"
  | Gpu_accelerated -> "gpu-accelerated"
  | Gpu_parallel -> "gpu-parallel"
  | Cpu_sanitizer -> "cpu-sanitizer"
  | Cpu_nvbit -> "cpu-nvbit"
  | Instruction_level -> "instruction-level"

type t = {
  name : string;
  fine_grained : fine_grained;
  on_event : Event.t -> unit;
  on_kernel_begin : Event.kernel_info -> unit;
  on_kernel_end : Event.kernel_info -> Event.kernel_end_summary -> unit;
  on_mem_summary : Event.kernel_info -> (Objmap.obj * int) list -> unit;
  on_device_summary : Event.kernel_info -> Devagg.summary -> unit;
  on_access : Event.kernel_info -> Event.mem_access -> unit;
  on_access_columns : (Event.kernel_info -> Gpusim.Warp.batch -> unit) option;
  on_kernel_profile : Event.kernel_info -> Gpusim.Kernel.profile -> unit;
  on_operator : string -> Event.api_phase -> int -> unit;
  on_tensor : [ `Alloc of int * int * string | `Free of int * int ] -> unit;
  report : Format.formatter -> unit;
}

let default ?(fine_grained = No_fine_grained) name =
  {
    name;
    fine_grained;
    on_event = ignore;
    on_kernel_begin = ignore;
    on_kernel_end = (fun _ _ -> ());
    on_mem_summary = (fun _ _ -> ());
    on_device_summary = (fun _ _ -> ());
    on_access = (fun _ _ -> ());
    on_access_columns = None;
    on_kernel_profile = (fun _ _ -> ());
    on_operator = (fun _ _ _ -> ());
    on_tensor = ignore;
    report = (fun ppf -> Format.fprintf ppf "tool %s: no report@." name);
  }
