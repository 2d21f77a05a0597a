(** Architectural descriptions of the simulated accelerators.

    One record per GPU model used in the paper's evaluation (Table III):
    NVIDIA A100 80GB, NVIDIA GeForce RTX 3060 and AMD MI300X.  The numbers
    are public datasheet values; they parameterize the cost model, the UVM
    subsystem and the profiling backends. *)

type vendor = Nvidia | Amd | Google

val vendor_to_string : vendor -> string

type t = {
  name : string;
  vendor : vendor;
  sm_count : int;  (** streaming multiprocessors / compute units *)
  warp_size : int;  (** threads per warp (32) or wavefront (64) *)
  max_warps_per_sm : int;
  mem_bytes : int;  (** device memory capacity *)
  mem_bw_gbps : float;  (** device memory bandwidth, GB/s *)
  pcie_bw_gbps : float;  (** host link bandwidth, GB/s *)
  fp32_tflops : float;
  clock_ghz : float;
  launch_overhead_us : float;  (** fixed host-side kernel launch cost *)
  uvm_page_bytes : int;  (** UVM management/migration granularity (2 MiB) *)
  uvm_fault_latency_us : float;
      (** demand-migration latency overhead per 2 MiB page, on top of the
          transfer itself: a 2 MiB block faults in as a series of 64 KiB
          fault groups, each paying fault-handling latency *)
}

val a100 : t
val rtx3060 : t
val mi300x : t

val tpu_v4 : t
(** Google TPU v4: a systolic-array accelerator.  The GPU-oriented fields
    are mapped onto TPU concepts — [sm_count] is the TensorCore count,
    [warp_size] the vector-lane width, [max_warps_per_sm] the in-flight
    program slots — exercising the paper's claim (§III-G) that PASTA
    extends to any accelerator with runtime event APIs. *)

val all : t list

val concurrent_lanes : t -> int
(** Number of hardware threads the device can run concurrently. *)

val analysis_lanes : t -> int
(** Effective parallelism available to GPU-resident analysis functions.
    Calibrated, not raw thread count: patched instrumentation is bound by
    the memory/atomic subsystem, so the effective lane count grows much
    more slowly than the thread count across GPU generations (the paper's
    A100-vs-RTX3060 overhead ratios imply roughly a 1.5x gap, not the 5x
    raw-thread gap). *)

val pp : Format.formatter -> t -> unit
