(** Tensor-aware UVM prefetching (paper §V-C1, Figs. 11 and 12).

    Two-phase design, exactly the paper's tool:

    {b Phase 1 — record.}  A GPU-accelerated PASTA tool correlates every
    kernel launch with the memory objects and tensors it actually
    accesses, producing a prefetch {!plan} keyed by grid id.  Because the
    simulator is deterministic, grid ids and device addresses are
    reproducible across runs.

    {b Phase 2 — replay.}  A probe installed on a fresh device issues
    [cudaMemPrefetchAsync]-equivalents before each kernel launch, at
    either granularity:

    - [Object_level]: whole runtime allocations (pool segments) — the
      conventional strategy, which degrades badly under oversubscription
      because pool segments bundle tensors with unrelated lifetimes;
    - [Tensor_level]: exactly the tensors the kernel accesses — the
      cross-layer strategy only PASTA's DL-framework integration makes
      possible. *)

type granularity = Object_level | Tensor_level

type recorder

val recorder : unit -> recorder
val recorder_tool : recorder -> Pasta.Tool.t

type plan

val plan_of : recorder -> granularity -> plan
val plan_kernels : plan -> int
(** Number of kernels with recorded prefetch targets. *)

val plan_ranges : plan -> int
(** Total (deduplicated per kernel) prefetch ranges in the plan. *)

val install : plan -> Gpusim.Device.t -> unit
(** Attach the prefetching probe: before each kernel launch, prefetch the
    plan's ranges for that grid id into device memory. *)

val remove : Gpusim.Device.t -> unit
