(** Vendor-abstraction layer: attach any supported profiling substrate to
    a device and pump normalized events into an event processor
    (paper §III-D, "Support for Diverse GPU Platforms").

    Supporting a new accelerator means adding one constructor here and a
    normalization function in {!Normalize} — tools and the processor are
    untouched, which is the modularity claim of the paper's design. *)

type kind = Sanitizer | Nvbit | Rocprofiler | Xprof | Opencl

val kind_to_string : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}, tolerant of common aliases
    ("sanitizer", "cl", ...); [None] for unknown names. *)

val default_kind_for : ?fine_grained:Tool.fine_grained -> Gpusim.Device.t -> kind
(** Sanitizer on NVIDIA parts, Rocprofiler on AMD parts, Xprof on Google
    parts, except that a tool requiring [Cpu_nvbit] gets [Nvbit].
    [Opencl] is never the default — it is vendor-neutral and selected
    explicitly. *)

type t

val refusal : kind -> Gpusim.Device.t -> Tool.fine_grained -> string option
(** Why a backend of [kind] on [device] cannot serve a tool of the given
    analysis model, or [None] when it can: a vendor mismatch (e.g.
    [Rocprofiler] on an NVIDIA device), then an unsupported
    backend/model combination (e.g. [Gpu_parallel] off Sanitizer).  Pure:
    nothing is attached.  {!attach} and {!enable_fine_grained} raise
    exactly these messages. *)

val attach : kind -> Gpusim.Device.t -> processor:Processor.t -> t
(** Subscribe to every coarse event domain and forward normalized events
    with device timestamps.  Raises [Invalid_argument] on a vendor
    mismatch ({!refusal} with [No_fine_grained]). *)

val detach : t -> unit
val phases : t -> Vendor.Phases.t

val enable_fine_grained : t -> Tool.fine_grained -> unit
(** Install the instrumentation the tool's analysis model needs:

    - [Gpu_accelerated]: device-resident aggregation (Sanitizer,
      ROCProfiler or OpenCL kernel patching) feeding
      {!Processor.submit_region} / {!Processor.flush_kernel_summary};
    - [Gpu_parallel] (Sanitizer parallel analysis), [Cpu_sanitizer]
      (Sanitizer host-buffer tracing) and [Cpu_nvbit] (NVBit memory
      tracing, on an [Nvbit] backend): each hands a kernel's table of
      record pieces to {!Processor.submit_pieces} once, at kernel exit;
      [Gpu_parallel] then feeds
      {!Processor.flush_parallel_summary};
    - [No_fine_grained]: nothing.

    Raises [Invalid_argument] with {!refusal}'s message on unsupported
    backend/model combinations. *)
