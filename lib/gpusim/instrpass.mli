(** Intra-kernel region instrumentation pass (KPerfIR-style).

    Carves the static SASS layout of a kernel ({!Sass.listing}) into
    regions — prologue, per-memory-region access phases, the shared
    staging block, barrier-delimited phase, compute body, epilogue — and
    splits the kernel's wall time across them with cost-model weights.

    Two invariants:

    - {b stable ids}: {!region_id} is a pure hash of (kernel name,
      static pc range), so the same static code range gets the same id
      in every run and every replay;
    - {b exact partition}: the [t_time_us] of the spans returned by
      {!timeline} sum to [wall] bit-for-bit in any summation order
      (every duration is an integer multiple of one power of two). *)

type granularity = Off | Coarse | Fine

type timed = {
  t_id : int;  (** stable region id *)
  t_label : string;  (** "prologue", "gmem\[0\].ld", "compute", ... *)
  t_start_pc : int;  (** first static pc of the region *)
  t_end_pc : int;  (** one past the last static pc *)
  t_mem_region : int;  (** kernel memory-region index, -1 = none *)
  t_start_us : float;  (** absolute start on the device clock *)
  t_time_us : float;  (** exact share of the kernel's wall time *)
  t_bytes : int;  (** bytes moved by the region, per the cost model *)
  t_flops : float;  (** flops executed by the region *)
}

val region_id : kernel_name:string -> start_pc:int -> end_pc:int -> int
(** Stable non-negative region id: FNV-1a of the kernel name and static
    pc range.  Independent of grid id, device, stream and time. *)

val exact_partition : total:float -> float array -> float array
(** [exact_partition ~total weights] splits [total] proportionally to
    [weights] such that the results sum to [total] exactly (bit-for-bit,
    in any summation order).  Non-positive or non-finite totals yield
    all zeros; all-zero weights fall back to an even split. *)

val timeline :
  Arch.t -> Kernel.t -> granularity -> t0:float -> wall:float -> timed array
(** Region spans of one launch, in pc order, starting at [t0] and
    exactly covering [wall] microseconds.  [Off] yields [[||]]; [Coarse]
    yields prologue/body/epilogue; [Fine] additionally separates each
    global-memory phase, the shared staging block, the barrier phase and
    the compute body. *)
