(** PASTA's unified event vocabulary (paper Table II).

    Every profiling backend and DL-framework hook is normalized into this
    one type, so tools are written once and run on any vendor or
    framework.  Events are grouped exactly as the paper groups them:
    coarse-grained host-called API events, fine-grained device-side
    operations, and high-level DL framework events.

    Table II's global memory access has no constructor here: a sampled
    record reaches a host-analysis tool only through [Tool.on_access]
    or, batched, [Tool.on_access_columns], and reaches device-resident
    tools aggregated ([Device_summary], [Kernel_region]).  [on_event]
    sees no per-record event. *)

type api_phase = [ `Enter | `Exit ]

type copy_direction = [ `H2d | `D2h | `D2d | `P2p of int ]

val pp_direction : Format.formatter -> copy_direction -> unit

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

val kernel_info_of_launch : Gpusim.Device.launch_info -> kernel_info

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
  weight : int;  (** true accesses this sampled record stands for *)
}

type region_summary = {
  base : int;
  extent : int;
  accesses : int;
  written : bool;
}

type region_span = {
  rg_id : int;  (** stable id: hash of (kernel name, static pc range) *)
  rg_label : string;  (** "prologue", "gmem\[0\].ld", "compute", ... *)
  rg_start_pc : int;
  rg_end_pc : int;  (** one past the last static pc of the region *)
  rg_mem_region : int;  (** kernel memory-region index, -1 = none *)
  rg_start_us : float;  (** absolute start on the device clock *)
  rg_time_us : float;
      (** share of the kernel's wall time; spans of one launch sum to
          its [duration_us] exactly *)
  rg_bytes : int;  (** bytes the region moves, per the cost model *)
  rg_flops : float;  (** flops the region executes *)
}

type payload =
  (* Coarse-grained host-called API events *)
  | Driver_call of { name : string; phase : api_phase }
  | Runtime_call of { name : string; phase : api_phase }
  | Kernel_launch of { info : kernel_info; phase : [ `Begin | `End of kernel_end_summary ] }
  | Memory_copy of { bytes : int; direction : copy_direction; stream : int }
  | Memory_set of { addr : int; bytes : int; value : int }
  | Memory_alloc of { addr : int; bytes : int; managed : bool }
  | Memory_free of { addr : int; bytes : int }
  | Synchronization of { scope : [ `Device | `Stream of int ] }
  (* Fine-grained device-side operations *)
  | Device_summary of { kernel : kernel_info; summary : Devagg.summary }
      (** merged device-side reduction of a kernel's materialized records *)
  | Shared_access of { kernel : kernel_info; access : mem_access }
  | Kernel_region of { kernel : kernel_info; region : region_summary }
      (** aggregated by GPU-resident analysis *)
  | Barrier of { kernel : kernel_info; count : int }
  | Kernel_profile of { kernel : kernel_info; profile : Gpusim.Kernel.profile }
      (** per-kernel behaviour aggregate from instruction-level patching *)
  (* High-level DL framework events *)
  | Operator of { name : string; phase : api_phase; seq : int }
  | Tensor_alloc of { ptr : int; bytes : int; pool_allocated : int; pool_reserved : int; tag : string }
  | Tensor_free of { ptr : int; bytes : int; pool_allocated : int; pool_reserved : int }
  | Annotation of { label : string; phase : [ `Start | `End ] }
      (** pasta.start / pasta.end user annotations *)
  | Tool_quarantined of { tool : string; failures : int }
      (** emitted by the supervision layer when a tool's circuit breaker
          trips ({!Guard}); the workload keeps running *)
  | Region_enter of { kernel : kernel_info; span : region_span }
      (** intra-kernel region boundary from the instrumentation pass
          ({!Gpusim.Instrpass}), emitted in static pc order *)
  | Region_exit of { kernel : kernel_info; span : region_span }

type t = {
  device : int;
  time_us : float;  (** simulated timestamp at emission *)
  payload : payload;
}

val kind_name : payload -> string
(** Short classifier used by filters and reports, e.g. "kernel_launch". *)

val all_kinds : string list
(** Every [kind_name] the vocabulary can produce, one per [payload]
    constructor, in declaration order.  The coverage suite checks this
    list against a sample of every constructor, so it cannot drift. *)

val update_objmap : Objmap.t -> payload -> unit
(** Apply an allocation, a tensor or a free to an object registry; any
    other event leaves it alone. *)

val is_fine_grained : payload -> bool
val is_dl_framework : payload -> bool

val pp : Format.formatter -> t -> unit
