(** Operator layer: PyTorch-style composite operators.

    Every operator fires [RecordFunction] begin/end events
    ({!Callbacks.record_function}) under its "aten::" name, pushes the
    native (C++) frames a real dispatch would traverse — so cross-layer
    call-stack capture sees realistic stacks (paper Fig. 4) — allocates its
    outputs from the caching pool, and lowers to one or more kernel
    launches through {!Kernels}.

    Lowering is vendor-sensitive: the CUDA/cuDNN backend fuses bias and
    activation into fewer kernels while the HIP/MIOpen backend decomposes
    them and allocates transient per-call workspaces, reproducing the
    allocation-count and peak-memory differences of the paper's Fig. 14.

    Ownership convention: operators {e never} consume their inputs; callers
    (the layer substrate) manage tensor lifetimes. *)

type conv_cfg = {
  n : int;
  c : int;
  h : int;
  w : int;
  oc : int;
  kh : int;
  kw : int;
  stride : int;
  pad : int;
  algo : [ `Im2col | `Cudnn ];
      (** [`Im2col]: per-image im2col launches + one batched GEMM (the
          aten fallback path AlexNet hits); [`Cudnn]: implicit GEMM (the
          cuDNN/MIOpen path ResNet hits). *)
  benchmark_search : bool;
      (** cuDNN benchmark-mode algorithm search: the first call for a
          given layer sweeps candidate algorithms through the full shared
          workspace (a layout-transform kernel touching the whole 1 GiB
          object); later calls reuse the cached choice. *)
}

val conv_out_dims : conv_cfg -> int * int
(** (out_h, out_w).  Raises [Invalid_argument] if the geometry is
    degenerate. *)

val record : Ctx.t -> string -> (unit -> 'a) -> 'a
(** Wrap a computation in RecordFunction begin/end events. *)

val new_tensor : Ctx.t -> ?name:string -> Shape.t -> Dtype.t -> Tensor.t

(** {2 Forward operators} *)

val linear :
  Ctx.t -> input:Tensor.t -> weight:Tensor.t -> bias:Tensor.t option ->
  m:int -> k:int -> n:int -> Tensor.t

val conv2d :
  Ctx.t -> input:Tensor.t -> weight:Tensor.t -> bias:Tensor.t option ->
  cfg:conv_cfg -> Tensor.t

val bmm :
  Ctx.t -> a:Tensor.t -> b:Tensor.t -> m:int -> n:int -> k:int ->
  out_shape:Shape.t -> Tensor.t
(** Batched matrix multiply ("aten::bmm"): the attention score and
    context products. *)

val relu : Ctx.t -> Tensor.t -> Tensor.t
val gelu : Ctx.t -> Tensor.t -> Tensor.t
val add : Ctx.t -> Tensor.t -> Tensor.t -> Tensor.t
val batchnorm : Ctx.t -> input:Tensor.t -> scale:Tensor.t -> Tensor.t
val layernorm : Ctx.t -> input:Tensor.t -> scale:Tensor.t -> Tensor.t
val softmax : Ctx.t -> Tensor.t -> Tensor.t

(** In-place softmax over the tensor's own storage — what the attention
    paths use so the score matrix is the only large object the kernel
    touches. *)
val softmax_ : Ctx.t -> Tensor.t -> unit
val dropout : Ctx.t -> Tensor.t -> Tensor.t * Tensor.t
(** (output, mask); the mask is saved for backward in training. *)

val maxpool : Ctx.t -> input:Tensor.t -> out_shape:Shape.t -> Tensor.t
val avgpool : Ctx.t -> input:Tensor.t -> out_shape:Shape.t -> Tensor.t

val embedding :
  Ctx.t -> table:Tensor.t -> indices:Tensor.t -> rows_touched:int ->
  embed_dim:int -> Tensor.t

val cross_entropy : Ctx.t -> logits:Tensor.t -> Tensor.t
(** Scalar loss tensor. *)

(** {2 Backward operators} *)

val linear_bwd :
  Ctx.t -> input:Tensor.t -> weight:Tensor.t -> grad_out:Tensor.t ->
  has_bias:bool -> m:int -> k:int -> n:int ->
  Tensor.t * Tensor.t * Tensor.t option
(** (grad_input, grad_weight, grad_bias). *)

val conv2d_bwd :
  Ctx.t -> input:Tensor.t -> weight:Tensor.t -> grad_out:Tensor.t ->
  has_bias:bool -> cfg:conv_cfg ->
  Tensor.t * Tensor.t * Tensor.t option

val relu_bwd : Ctx.t -> output:Tensor.t -> grad_out:Tensor.t -> Tensor.t
val gelu_bwd : Ctx.t -> input:Tensor.t -> grad_out:Tensor.t -> Tensor.t
val batchnorm_bwd :
  Ctx.t -> input:Tensor.t -> scale:Tensor.t -> grad_out:Tensor.t -> Tensor.t
val layernorm_bwd :
  Ctx.t -> input:Tensor.t -> scale:Tensor.t -> grad_out:Tensor.t -> Tensor.t
val softmax_bwd : Ctx.t -> output:Tensor.t -> grad_out:Tensor.t -> Tensor.t
val dropout_bwd : Ctx.t -> mask:Tensor.t -> grad_out:Tensor.t -> Tensor.t
val maxpool_bwd : Ctx.t -> grad_out:Tensor.t -> in_shape:Shape.t -> Tensor.t
val avgpool_bwd : Ctx.t -> grad_out:Tensor.t -> in_shape:Shape.t -> Tensor.t
val embedding_bwd :
  Ctx.t -> table:Tensor.t -> grad_out:Tensor.t -> rows_touched:int -> Tensor.t
(** Dense grad-table tensor, scatter-added. *)

val cross_entropy_bwd : Ctx.t -> logits:Tensor.t -> Tensor.t

(** {2 Optimizer} *)

val sgd_step : Ctx.t -> params:Tensor.t list -> grads:Tensor.t list -> unit
