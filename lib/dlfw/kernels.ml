module K = Gpusim.Kernel
module D = Gpusim.Device

let tile = 128
let block = Gpusim.Dim3.make 256

type rw = Read | Write

let region ?(rw = Read) ?extent ?accesses ?(pattern = K.Sequential) tensor =
  let extent =
    match extent with
    | Some e -> min e (Tensor.bytes tensor)
    | None -> Tensor.bytes tensor
  in
  let accesses =
    match accesses with
    | Some a -> a
    | None -> max 1 (extent / Dtype.size_bytes (Tensor.dtype tensor))
  in
  K.region ~write:(rw = Write) ~pattern ~base:(Tensor.base tensor) ~bytes:extent
    ~accesses ()

let launch (ctx : Ctx.t) ~name ?(unused_args = []) ?(shared_bytes = 0)
    ?(barriers = 0) ?prof ~regions ~flops ~work () =
  let grid = Gpusim.Dim3.make (max 1 ((work + 255) / 256)) in
  let arg_ptrs =
    List.map (fun (r : K.region) -> r.K.base) regions
    @ List.map Tensor.base unused_args
  in
  let kernel =
    K.make ~name ~grid ~block ~regions ~arg_ptrs ~flops ~shared_bytes ~barriers
      ?prof ()
  in
  ignore (D.launch ctx.Ctx.device kernel)

(* Vendor-flavoured kernel naming, following the real backend libraries. *)
let gemm_name (ctx : Ctx.t) ~m ~n =
  match Ctx.vendor ctx with
  | Gpusim.Arch.Nvidia ->
      Printf.sprintf "ampere_sgemm_%dx%d_tn" (min 128 (max 32 (m / 64 * 32)))
        (min 128 (max 32 (n / 64 * 32)))
  | Gpusim.Arch.Amd ->
      Printf.sprintf "Cijk_Ailk_Bljk_SB_MT%dx%d" (min 128 (max 32 (m / 64 * 32)))
        (min 128 (max 32 (n / 64 * 32)))
  | Gpusim.Arch.Google -> Printf.sprintf "xla::dot_general_%dx%d" m n

let elementwise_name (ctx : Ctx.t) op =
  match Ctx.vendor ctx with
  | Gpusim.Arch.Nvidia ->
      Printf.sprintf "at::native::vectorized_elementwise_kernel<4, %s>" op
  | Gpusim.Arch.Amd -> Printf.sprintf "at::native::elementwise_kernel<%s>" op
  | Gpusim.Arch.Google -> Printf.sprintf "xla::fusion<%s>" op

let ceil_div a b = (a + b - 1) / b

let gemm ctx ?fused_bias ?(unused_args = []) ~m ~n ~k ~a ~b ~c () =
  let reads_a = m * k * ceil_div n tile in
  let reads_b = k * n * ceil_div m tile in
  let writes_c = m * n in
  let regions =
    [
      region ~rw:Read ~accesses:reads_a a;
      region ~rw:Read ~accesses:reads_b b;
      region ~rw:Write ~accesses:writes_c c;
    ]
    @
    match fused_bias with
    | Some bias -> [ region ~rw:Read ~accesses:n bias ]
    | None -> []
  in
  let prof =
    let shared = reads_a + reads_b in
    let branches = max 1 (m * n / 256 * ceil_div k 32) in
    K.profile ~branches
      ~divergent_branches:(branches / 64) (* boundary tiles only *)
      ~shared_accesses:shared
      ~bank_conflicts:(shared / 128)
      ~barrier_stall_us:(1.5 *. float_of_int (ceil_div k 32))
      ~value_min:(-4.0 *. sqrt (float_of_int k))
      ~value_max:(4.0 *. sqrt (float_of_int k))
      ~redundant_loads:(max 0 (reads_a - (m * k)) + max 0 (reads_b - (k * n)))
      ()
  in
  launch ctx
    ~name:(gemm_name ctx ~m ~n)
    ~unused_args
    ~shared_bytes:(48 * 1024) ~barriers:(ceil_div k 32) ~prof
    ~regions
    ~flops:(2.0 *. float_of_int m *. float_of_int n *. float_of_int k)
    ~work:(m * n) ()

let elementwise ctx ~op ~ins ~out =
  let work = Tensor.numel out in
  let regions =
    List.map (fun t -> region ~rw:Read t) ins @ [ region ~rw:Write out ]
  in
  let data_dependent =
    match op with
    | "relu" | "threshold_backward" | "gelu" | "gelu_backward" | "masked_scale" -> true
    | _ -> false
  in
  let broadcast_reads =
    (* Inputs smaller than the output are broadcast: every re-read beyond
       the first pass over the operand observes an already-loaded value. *)
    List.fold_left
      (fun acc t -> acc + max 0 (work - Tensor.numel t))
      0 ins
  in
  let value_max = match op with "relu" -> 6.0 | "add" | "add_bias" -> 16.0 | _ -> 8.0 in
  let prof =
    K.profile ~branches:work
      ~divergent_branches:(if data_dependent then work / 8 else 0)
      ~value_min:(if String.equal op "relu" then 0.0 else -.value_max)
      ~value_max ~redundant_loads:broadcast_reads ()
  in
  launch ctx ~name:(elementwise_name ctx op) ~regions ~prof
    ~flops:(float_of_int work) ~work ()

let reduce ctx ~op ~src ~dst =
  let n = Tensor.numel src in
  let value_min = if String.equal op "nll_loss" then -88.0 else -32.0 in
  let prof =
    K.profile ~branches:(max 1 (n / 32 * 5))
      ~divergent_branches:(max 1 (n / 32)) (* the tail of every warp tree *)
      ~shared_accesses:(max 1 (n / 4))
      ~bank_conflicts:(n / 256)
      ~barrier_stall_us:2.0 ~value_min ~value_max:32.0 ()
  in
  launch ctx
    ~name:(Printf.sprintf "at::native::reduce_kernel<%s>" op)
    ~regions:[ region ~rw:Read src; region ~rw:Write dst ]
    ~barriers:2 ~prof
    ~flops:(float_of_int n)
    ~work:n ()

let fill ctx t =
  launch ctx ~name:"at::native::fill_kernel"
    ~regions:[ region ~rw:Write t ]
    ~flops:0.0 ~work:(Tensor.numel t) ()

let im2col ctx ~input ~col =
  let name =
    match Ctx.vendor ctx with
    | Gpusim.Arch.Nvidia -> "at::native::im2col_kernel"
    | Gpusim.Arch.Amd -> "miopen::Im2Col"
    | Gpusim.Arch.Google -> "xla::im2col"
  in
  (* Each column-buffer element is one read of the input (with overlap, the
     input is read multiple times) and one write. *)
  let writes = Tensor.numel col in
  launch ctx ~name
    ~regions:
      [ region ~rw:Read ~accesses:writes input; region ~rw:Write col ]
    ~flops:0.0 ~work:writes ()

let col2im ctx ~col ~output =
  let name =
    match Ctx.vendor ctx with
    | Gpusim.Arch.Nvidia -> "at::native::col2im_kernel"
    | Gpusim.Arch.Amd -> "miopen::Col2Im"
    | Gpusim.Arch.Google -> "xla::col2im"
  in
  let reads = Tensor.numel col in
  launch ctx ~name
    ~regions:[ region ~rw:Read col; region ~rw:Write ~accesses:reads output ]
    ~flops:(float_of_int reads) ~work:reads ()

let gather ctx ~table ~touched_bytes ~indices ~out =
  let n = Tensor.numel out in
  let prof =
    K.profile ~branches:n ~divergent_branches:(n / 2)
      ~value_min:(-2.0) ~value_max:2.0 ()
  in
  launch ctx ~prof ~name:"at::native::(anonymous namespace)::indexSelectLargeIndex"
    ~regions:
      [
        region ~rw:Read ~extent:touched_bytes ~pattern:K.Random table;
        region ~rw:Read indices;
        region ~rw:Write out;
      ]
    ~flops:0.0 ~work:(Tensor.numel out) ()

let softmax ctx ~direction ~src ~dst =
  let name =
    match direction with
    | `Fwd -> "at::native::(anonymous namespace)::softmax_warp_forward"
    | `Bwd -> "at::native::(anonymous namespace)::softmax_warp_backward"
  in
  let n = Tensor.numel src in
  let prof =
    K.profile ~branches:(max 1 (n / 32 * 2))
      ~divergent_branches:(max 1 (n / 512))
      ~shared_accesses:(max 1 (n / 2))
      ~bank_conflicts:(n / 512)
      ~barrier_stall_us:3.0
      ~value_min:(-90000.0) ~value_max:90000.0 (* exp intermediates *)
      ()
  in
  launch ctx ~name ~barriers:2 ~prof
    ~regions:
      [ region ~rw:Read ~accesses:(2 * n) src; region ~rw:Write dst ]
    ~flops:(3.0 *. float_of_int n)
    ~work:n ()

let batchnorm_stats ctx ~input ~stats =
  let name =
    match Ctx.vendor ctx with
    | Gpusim.Arch.Nvidia -> "at::native::batch_norm_collect_statistics_kernel"
    | Gpusim.Arch.Amd -> "MIOpenBatchNormFwdTrainSpatialStats"
    | Gpusim.Arch.Google -> "xla::batch_norm_training_stats"
  in
  let n = Tensor.numel input in
  let prof =
    K.profile ~branches:(max 1 (n / 32 * 3))
      ~divergent_branches:(max 1 (n / 64))
      ~shared_accesses:(max 1 (n / 2))
      ~bank_conflicts:(n / 64) (* column-strided accumulators conflict *)
      ~barrier_stall_us:8.0 ~value_min:(-64.0) ~value_max:64.0 ()
  in
  launch ctx ~name ~barriers:4 ~prof
    ~regions:[ region ~rw:Read input; region ~rw:Write stats ]
    ~flops:(2.0 *. float_of_int n)
    ~work:n ()

let batchnorm_apply ctx ~input ~stats ~out =
  let name =
    match Ctx.vendor ctx with
    | Gpusim.Arch.Nvidia -> "at::native::batch_norm_transform_input_kernel"
    | Gpusim.Arch.Amd -> "MIOpenBatchNormFwdTrainSpatialNorm"
    | Gpusim.Arch.Google -> "xla::batch_norm_training_apply"
  in
  launch ctx ~name
    ~regions:
      [ region ~rw:Read input; region ~rw:Read stats; region ~rw:Write out ]
    ~flops:(2.0 *. float_of_int (Tensor.numel input))
    ~work:(Tensor.numel input) ()

let pool ctx ~kind ~input ~out =
  let name =
    match kind with
    | `Max -> "at::native::(anonymous namespace)::max_pool_forward_nchw"
    | `Avg -> "at::native::(anonymous namespace)::avg_pool2d_out_cuda_frame"
  in
  let reads = Tensor.numel input in
  let windows = Tensor.numel out in
  let prof =
    match kind with
    | `Max ->
        K.profile ~branches:reads ~divergent_branches:(reads / 4)
          ~value_min:(-8.0) ~value_max:8.0 ()
    | `Avg -> K.profile ~branches:windows ~value_min:(-8.0) ~value_max:8.0 ()
  in
  launch ctx ~name ~prof
    ~regions:[ region ~rw:Read input; region ~rw:Write out ]
    ~flops:(float_of_int reads) ~work:windows ()

let pool_bwd ctx ~kind ~grad_out ~grad_in =
  let name =
    match kind with
    | `Max -> "at::native::(anonymous namespace)::max_pool_backward_nchw"
    | `Avg -> "at::native::(anonymous namespace)::avg_pool2d_backward_out_cuda_frame"
  in
  launch ctx ~name
    ~regions:[ region ~rw:Read grad_out; region ~rw:Write grad_in ]
    ~flops:(float_of_int (Tensor.numel grad_in))
    ~work:(Tensor.numel grad_in) ()

let sgd_step ctx ~params ~grads =
  if List.length params <> List.length grads then
    invalid_arg "Kernels.sgd_step: params/grads length mismatch";
  let regions =
    List.concat_map
      (fun (p, g) -> [ region ~rw:Write p; region ~rw:Read g ])
      (List.combine params grads)
  in
  let work = List.fold_left (fun acc p -> acc + Tensor.numel p) 0 params in
  launch ctx ~name:"at::native::multi_tensor_apply_kernel<sgd>" ~regions
    ~flops:(2.0 *. float_of_int work)
    ~work ()
