(** The simulated accelerator device.

    Exposes a CUDA/HIP-flavoured runtime surface — memory management,
    copies, kernel launches, synchronization, UVM — and a profiling hook
    bus.  Vendor profiling substrates ({!Vendor.Sanitizer}, {!Vendor.Nvbit},
    {!Vendor.Rocprofiler}) subscribe to coarse runtime {!event}s with
    {!add_probe} and to fine-grained execution with {!set_instrument}; the
    device itself charges only baseline execution costs, while
    instrumentation layers charge their own overheads on the device
    {!Clock} they can reach through {!clock}. *)

type memcpy_kind =
  | Host_to_device
  | Device_to_host
  | Device_to_device
  | Peer of int  (** destination device id *)

type exec_stats = {
  duration_us : float;  (** baseline kernel time, without instrumentation *)
  true_accesses : int;  (** exact dynamic global-memory access count *)
  faulted_pages : int;  (** UVM pages demand-migrated for this launch *)
}

type launch_info = {
  device_id : int;
  grid_id : int;  (** global launch ordinal on this device, from 1 *)
  stream : int;
  kernel : Kernel.t;
  py_stack : Hostctx.frame list;  (** host Python stack at launch *)
  native_stack : Hostctx.frame list;  (** host C++ stack at launch *)
}

type event =
  | Api of { name : string; phase : [ `Enter | `Exit ] }
      (** driver/runtime API boundary, vendor-flavoured name *)
  | Malloc of { alloc : Device_mem.alloc }
  | Free of { alloc : Device_mem.alloc }
  | Memcpy of { dst : int; src : int; bytes : int; kind : memcpy_kind; stream : int }
  | Memset of { addr : int; bytes : int; value : int; stream : int }
  | Launch_begin of launch_info
  | Launch_end of launch_info * exec_stats
  | Region_probe of { info : launch_info; spans : Instrpass.timed array }
      (** the launch's intra-kernel regions from the instrumentation
          pass ({!Instrpass}), in pc order, each an enter/exit pair;
          emitted once per launch, between its execution and its
          [Launch_end].  Exempt from fault-injected drop/duplicate so the
          spans always partition the kernel wall time exactly. *)
  | Sync of [ `Device | `Stream of int ]

type probe = { probe_name : string; on_event : event -> unit }

type instrument = {
  instr_name : string;
  on_kernel_entry : launch_info -> unit;
  on_region : launch_info -> Kernel.region -> unit;
  on_batch : (launch_info -> Warp.batch -> unit) option;
      (** the device's one record channel: when set, sampled per-access
          records are generated and arrive as {!Warp.batch}es, one per
          generation chunk, in deterministic (region, chunk) order, after
          every [on_region] of the launch; [None] generates no records,
          so only region aggregates are reported.  At sample rate 1.0
          and with no injector corrupting records, each closed-form
          chunk ({!Warp.closed_form}) arrives as a descriptor built in
          O(1), read through {!Warp.cursor}, {!Warp.walk},
          {!Warp.split_weight} or {!Warp.cols}; every other chunk is
          filled, thinned and corrupted as usual *)
  on_kernel_exit : launch_info -> exec_stats -> unit;
}

type t

val create : ?id:int -> ?uvm_capacity:int -> ?seed:int64 -> Arch.t -> t
(** [uvm_capacity] bounds the device bytes available to managed memory
    (defaults to the full physical memory); lowering it imposes
    oversubscription. *)

val id : t -> int
val arch : t -> Arch.t
val clock : t -> Clock.t
val now_us : t -> float
val uvm : t -> Uvm.t
val launches : t -> int
(** Number of kernels launched so far. *)

val set_sample_cap : t -> int -> unit
(** Maximum materialized access records per kernel region (the
    [ACCEL_PROF_ENV_SAMPLE_RATE] analogue; default 128).  Raises
    [Invalid_argument] if non-positive. *)

val sample_cap : t -> int

val set_sample_rate : t -> float -> unit
(** Fraction of materialized records kept after chunk generation (default
    1.0 = keep everything).  Rates below 1.0 thin each chunk through
    {!Warp.thin} with a per-(grid, region, chunk) keyed stream salted
    independently of the fill stream: thinning is byte-deterministic at any
    domain count, composes with fault injection, and surviving records carry
    inverse-probability weights so weighted statistics stay unbiased.
    Values above 1.0 clamp to 1.0; raises [Invalid_argument] on
    non-positive or non-finite rates. *)

val sample_rate : t -> float

val set_regions : t -> Instrpass.granularity -> unit
(** Intra-kernel region instrumentation level (default [Off]).  At
    [Coarse] and [Fine] every launch additionally emits a
    [Region_probe] event whose spans partition the launch's
    [duration_us] exactly ({!Instrpass.timeline}).  Region emission
    never advances the device clock, so the simulated timeline is
    identical at every granularity. *)

val regions : t -> Instrpass.granularity

(** {2 Profiling hooks} *)

val add_probe : t -> probe -> unit
val remove_probe : t -> string -> unit
val set_instrument : t -> instrument -> unit
val clear_instrument : t -> unit

(** {2 Fault injection}

    With an injector installed ({!Faults}), the device deterministically
    drops/duplicates probe events (except API and alloc/free events),
    corrupts materialized access records, turns launches into stuck
    kernels, and develops ECC-style errors in live allocations. *)

val set_faults : t -> Faults.t -> unit
val clear_faults : t -> unit
val faults : t -> Faults.t option

(** {2 Parallel preprocessing}

    With a {!Pasta_util.Domain_pool} installed, materialized record
    generation (and fault corruption of those records) shards across the
    pool by region-chunk; descriptors are built inline.
    Chunk layout and per-chunk RNG streams are independent of the pool
    size, so output is byte-identical with or without a pool. *)

val set_pool : t -> Pasta_util.Domain_pool.t -> unit
val clear_pool : t -> unit
val pool : t -> Pasta_util.Domain_pool.t option

(** {2 Runtime surface} *)

val malloc : t -> ?tag:string -> int -> Device_mem.alloc
val malloc_managed : t -> ?tag:string -> int -> Device_mem.alloc
val free : t -> int -> unit
val memcpy : t -> dst:int -> src:int -> bytes:int -> kind:memcpy_kind -> ?stream:int -> unit -> unit
val memset : t -> addr:int -> bytes:int -> value:int -> ?stream:int -> unit -> unit
val launch : t -> ?stream:int -> Kernel.t -> exec_stats
val synchronize : t -> unit
val stream_synchronize : t -> int -> unit

(** {2 Asynchronous streams}

    The synchronous surface above models stream-blocking execution (what
    running under a profiler with [CUDA_LAUNCH_BLOCKING]-style
    serialization gives you, and what the calibrated experiments use).
    The [_async] variants model real stream concurrency: work enqueues on
    a per-stream timeline, the host advances only by the submission cost,
    and {!synchronize} / {!stream_synchronize} join the host clock with
    the streams' completion times.  Copy-compute overlap across distinct
    streams falls out naturally.

    Fine-grained instrumentation serializes execution on real hardware
    too, so when an instrument is installed the [_async] variants degrade
    to their synchronous semantics. *)

val launch_async : t -> stream:int -> Kernel.t -> exec_stats
(** Enqueue a kernel; [duration_us] reports the kernel's execution time
    even though the host does not wait for it. *)

val memcpy_async :
  t -> dst:int -> src:int -> bytes:int -> kind:memcpy_kind -> stream:int -> unit

val stream_busy_until : t -> int -> float
(** Absolute completion time of the last work enqueued on the stream;
    the host's current time for an idle stream. *)

val api_name : t -> string -> string
(** Vendor-flavoured runtime entry point: [api_name d "Malloc"] is
    "cudaMalloc" on NVIDIA parts and "hipMalloc" on AMD parts. *)
