(** Memory characteristics / working-set analysis (paper §V-B2, Table V).

    The working set of a workload is the maximum memory footprint of any
    single kernel execution, where a kernel's footprint is the total size
    of the memory objects it {e actually accessed} (argument lists
    over-approximate; access tracking is required).  Objects are resolved
    tensor-first through PASTA's cross-layer registry.

    Three interchangeable variants reproduce the paper's overhead study
    (§V-B3, Figs. 8–10):

    - [Gpu] — GPU-resident collect-and-analyze (PASTA's low-overhead
      design): the tool consumes per-kernel object summaries;
    - [Gpu_parallel] — like [Gpu], but footprints come from the
      domain-parallel device-side reduction over sampled records
      ({!Pasta.Devagg}); the tool consumes one merged summary per kernel;
    - [Cpu_sanitizer] — Compute Sanitizer MemoryTracker style: the tool
      processes every trace record on the host;
    - [Cpu_nvbit] — NVBit MemTrace style: ditto, behind SASS dump/parse.

    All three produce the same working-set numbers; only the analysis
    model (and hence the overhead) differs. *)

type variant = Gpu | Gpu_parallel | Cpu_sanitizer | Cpu_nvbit

val variant_to_string : variant -> string

type row = {
  kernel_count : int;
  footprint_bytes : int;  (** peak framework memory usage *)
  ws_bytes : int;  (** maximum per-kernel footprint *)
  ws_min : int;
  ws_mean : float;
  ws_median : float;
  ws_p90 : float;
}

type t

val create : ?variant:variant -> unit -> t
val tool : t -> Pasta.Tool.t

val result : t -> row
(** Raises [Invalid_argument] when no kernels were observed. *)

val kernel_footprints : t -> float array
(** Per-kernel accessed-object footprints in bytes, in launch order. *)
