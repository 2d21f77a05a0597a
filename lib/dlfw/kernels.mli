(** Kernel builders: translate tensor-level operations into simulated
    kernel launches with realistic names, launch geometry, FLOP counts and
    memory-access plans.

    Kernel names are vendor-flavoured the way real PyTorch backends are —
    cuBLAS/cuDNN-style on NVIDIA parts, rocBLAS/MIOpen-style on AMD — so
    that the kernel-frequency tool (paper Fig. 7) and the cross-vendor
    comparison (Fig. 14) see the naming differences PASTA must normalize.

    Access-count model: GEMM operands are re-read once per 128-wide output
    tile (a tiled-cache approximation), elementwise kernels read each input
    and write each output element once, reductions read everything and
    write the reduced extent. *)

type rw = Read | Write

val region :
  ?rw:rw ->
  ?extent:int ->
  ?accesses:int ->
  ?pattern:Gpusim.Kernel.pattern ->
  Tensor.t ->
  Gpusim.Kernel.region
(** Access-plan entry for a tensor: [extent] defaults to the whole tensor,
    [accesses] to one access per element of the extent. *)

val launch :
  Ctx.t ->
  name:string ->
  ?unused_args:Tensor.t list ->
  ?shared_bytes:int ->
  ?barriers:int ->
  ?prof:Gpusim.Kernel.profile ->
  regions:Gpusim.Kernel.region list ->
  flops:float ->
  work:int ->
  unit ->
  unit
(** Launch a kernel with one thread per [work] item in 256-thread blocks.
    [unused_args] are pointer arguments passed but never dereferenced —
    the over-approximation that motivates access-based working-set
    analysis (paper §V-B2). *)

(** {2 Specific kernels} *)

val gemm :
  Ctx.t ->
  ?fused_bias:Tensor.t ->
  ?unused_args:Tensor.t list ->
  m:int ->
  n:int ->
  k:int ->
  a:Tensor.t ->
  b:Tensor.t ->
  c:Tensor.t ->
  unit ->
  unit

val elementwise :
  Ctx.t -> op:string -> ins:Tensor.t list -> out:Tensor.t -> unit
(** One read per input element, one write per output element. *)

val reduce : Ctx.t -> op:string -> src:Tensor.t -> dst:Tensor.t -> unit
val fill : Ctx.t -> Tensor.t -> unit

val im2col : Ctx.t -> input:Tensor.t -> col:Tensor.t -> unit
val col2im : Ctx.t -> col:Tensor.t -> output:Tensor.t -> unit

val gather :
  Ctx.t -> table:Tensor.t -> touched_bytes:int -> indices:Tensor.t -> out:Tensor.t -> unit
(** Embedding lookup: only [touched_bytes] of the table extent is
    accessed (clamped to the table size). *)

val softmax : Ctx.t -> direction:[ `Fwd | `Bwd ] -> src:Tensor.t -> dst:Tensor.t -> unit

val batchnorm_stats : Ctx.t -> input:Tensor.t -> stats:Tensor.t -> unit
val batchnorm_apply : Ctx.t -> input:Tensor.t -> stats:Tensor.t -> out:Tensor.t -> unit

val pool : Ctx.t -> kind:[ `Max | `Avg ] -> input:Tensor.t -> out:Tensor.t -> unit
val pool_bwd : Ctx.t -> kind:[ `Max | `Avg ] -> grad_out:Tensor.t -> grad_in:Tensor.t -> unit

val sgd_step : Ctx.t -> params:Tensor.t list -> grads:Tensor.t list -> unit
(** One fused multi-tensor-apply launch over all parameter/grad pairs. *)
