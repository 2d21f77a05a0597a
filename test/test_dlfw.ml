(* DL-framework substrate tests: allocator, tensors, ops, layers, models. *)

open Dlfw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let mk_ctx ?(arch = Gpusim.Arch.a100) ?(managed = false) () =
  Ctx.create ~managed (Gpusim.Device.create arch)

(* ---- Dtype / Shape ---- *)

let test_dtype_sizes () =
  check_int "f32" 4 (Dtype.size_bytes Dtype.F32);
  check_int "f16" 2 (Dtype.size_bytes Dtype.F16);
  check_int "i64" 8 (Dtype.size_bytes Dtype.I64);
  check_int "u8" 1 (Dtype.size_bytes Dtype.U8)

let test_shape () =
  check_int "numel" 24 (Shape.numel [ 2; 3; 4 ]);
  check_int "scalar numel" 1 (Shape.numel []);
  check_int "bytes" 96 (Shape.bytes [ 2; 3; 4 ] Dtype.F32);
  check_bool "equal" true (Shape.equal [ 1; 2 ] [ 1; 2 ]);
  Alcotest.check_raises "non-positive dim"
    (Invalid_argument "Shape.numel: non-positive dimension") (fun () ->
      ignore (Shape.numel [ 2; 0 ]))

(* ---- Callbacks ---- *)

let test_callbacks_observers () =
  Callbacks.clear_observers ();
  let mems = ref 0 and ops = ref 0 in
  Callbacks.add_memory_observer "t" (fun _ -> incr mems);
  Callbacks.add_op_observer "t" (fun _ -> incr ops);
  Callbacks.report_memory_usage
    { Callbacks.ptr = 0; size_delta = 1; total_allocated = 1; total_reserved = 1;
      device_id = 0; tag = "x" };
  Callbacks.record_function
    { Callbacks.op_name = "aten::x"; phase = `Begin; device_id = 0; seq = 1 };
  check_int "mem observed" 1 !mems;
  check_int "op observed" 1 !ops;
  Callbacks.remove_memory_observer "t";
  Callbacks.report_memory_usage
    { Callbacks.ptr = 0; size_delta = 1; total_allocated = 1; total_reserved = 1;
      device_id = 0; tag = "x" };
  check_int "removed" 1 !mems;
  Callbacks.clear_observers ();
  Callbacks.record_function
    { Callbacks.op_name = "aten::x"; phase = `End; device_id = 0; seq = 1 };
  check_int "cleared" 1 !ops

(* Serve executor threads attach and detach sessions at once, and every
   attach adds framework observers that its detach removes.  An update
   lost between two threads would leave a finished job's observer on the
   bus, where it matches later jobs.  Four threads add, check and remove
   their own observers, with bystanders registered to lengthen each
   update; afterwards no thread's observer may remain. *)
let test_callbacks_concurrent_registration () =
  Callbacks.clear_observers ();
  for i = 1 to 2000 do
    Callbacks.add_op_observer (Printf.sprintf "bystander-%d" i) ignore
  done;
  let fired = Atomic.make 0 and missing = Atomic.make 0 in
  let op = { Callbacks.op_name = "aten::x"; phase = `Begin; device_id = 0; seq = 1 } in
  let worker t =
    for i = 1 to 3000 do
      let name = Printf.sprintf "stress-%d-%d" t i in
      let mine = ref false in
      Callbacks.add_op_observer name (fun _ ->
          mine := true;
          Atomic.incr fired);
      if i mod 100 = 0 then begin
        Callbacks.record_function op;
        if not !mine then Atomic.incr missing
      end;
      Callbacks.remove_op_observer name
    done
  in
  List.iter Thread.join (List.init 4 (Thread.create worker));
  Atomic.set fired 0;
  Callbacks.record_function op;
  Callbacks.clear_observers ();
  check_int "every added observer was registered" 0 (Atomic.get missing);
  check_int "no removed observer is left on the bus" 0 (Atomic.get fired)

let test_callbacks_seq () =
  let a = Callbacks.next_op_seq () in
  let b = Callbacks.next_op_seq () in
  check_bool "increments" true (b = a + 1)

(* ---- Allocator ---- *)

let test_alloc_rounding () =
  let ctx = mk_ctx () in
  let b = Allocator.alloc ctx.Ctx.pool 100 in
  check_int "rounded to 512" 512 b.Allocator.bytes;
  check_int "requested kept" 100 b.Allocator.requested;
  Allocator.free ctx.Ctx.pool b;
  Ctx.destroy ctx

let test_alloc_small_pool_segment () =
  let ctx = mk_ctx () in
  let b = Allocator.alloc ctx.Ctx.pool 1024 in
  check_int "small request in 2MB segment" (2 * 1024 * 1024) b.Allocator.seg_bytes;
  (* A second small allocation shares the segment. *)
  let b2 = Allocator.alloc ctx.Ctx.pool 1024 in
  check_int "shares segment" b.Allocator.seg_base b2.Allocator.seg_base;
  check_int "one segment" 1 (Allocator.segment_count ctx.Ctx.pool);
  Ctx.destroy ctx

let test_alloc_reuse () =
  let ctx = mk_ctx () in
  let b = Allocator.alloc ctx.Ctx.pool 4096 in
  let base = b.Allocator.base in
  Allocator.free ctx.Ctx.pool b;
  let b2 = Allocator.alloc ctx.Ctx.pool 4096 in
  check_int "freed block reused" base b2.Allocator.base;
  check_int "no new device traffic" 1 (Allocator.segment_count ctx.Ctx.pool);
  Ctx.destroy ctx

let test_alloc_best_fit () =
  let ctx = mk_ctx () in
  (* Create two holes: 8K and 4K; a 3K request must take the 4K hole. *)
  let pad1 = Allocator.alloc ctx.Ctx.pool 512 in
  let h8 = Allocator.alloc ctx.Ctx.pool 8192 in
  let pad2 = Allocator.alloc ctx.Ctx.pool 512 in
  let h4 = Allocator.alloc ctx.Ctx.pool 4096 in
  let pad3 = Allocator.alloc ctx.Ctx.pool 512 in
  Allocator.free ctx.Ctx.pool h8;
  Allocator.free ctx.Ctx.pool h4;
  let b = Allocator.alloc ctx.Ctx.pool 3072 in
  check_int "best fit picks the smaller hole" h4.Allocator.base b.Allocator.base;
  List.iter (Allocator.free ctx.Ctx.pool) [ pad1; pad2; pad3; b ];
  Ctx.destroy ctx

let test_alloc_double_free () =
  let ctx = mk_ctx () in
  let b = Allocator.alloc ctx.Ctx.pool 512 in
  Allocator.free ctx.Ctx.pool b;
  Alcotest.check_raises "double free"
    (Invalid_argument "Allocator.free: not a live block (double free?)") (fun () ->
      Allocator.free ctx.Ctx.pool b);
  Ctx.destroy ctx

let test_alloc_events () =
  Callbacks.clear_observers ();
  let ctx = mk_ctx () in
  let deltas = ref [] in
  Callbacks.add_memory_observer "t" (fun ev ->
      deltas := (ev.Callbacks.size_delta, ev.Callbacks.total_allocated) :: !deltas);
  let b = Allocator.alloc ctx.Ctx.pool 512 in
  Allocator.free ctx.Ctx.pool b;
  (match List.rev !deltas with
  | [ (512, 512); (-512, 0) ] -> ()
  | other ->
      Alcotest.failf "unexpected deltas: %s"
        (String.concat ";"
           (List.map (fun (d, t) -> Printf.sprintf "(%d,%d)" d t) other)));
  Callbacks.clear_observers ();
  Ctx.destroy ctx

let test_alloc_peaks () =
  let ctx = mk_ctx () in
  let a = Allocator.alloc ctx.Ctx.pool 1024 in
  let b = Allocator.alloc ctx.Ctx.pool 2048 in
  Allocator.free ctx.Ctx.pool a;
  Allocator.free ctx.Ctx.pool b;
  check_int "peak allocated" 3072 (Allocator.peak_allocated ctx.Ctx.pool);
  check_int "current zero" 0 (Allocator.allocated_bytes ctx.Ctx.pool);
  check_bool "reserved persists (cache)" true (Allocator.reserved_bytes ctx.Ctx.pool > 0);
  Allocator.release_cached ctx.Ctx.pool;
  check_int "cache released" 0 (Allocator.reserved_bytes ctx.Ctx.pool);
  Ctx.destroy ctx

let test_alloc_segment_of_addr () =
  let ctx = mk_ctx () in
  let b = Allocator.alloc ctx.Ctx.pool 512 in
  (match Allocator.segment_of_addr ctx.Ctx.pool (b.Allocator.base + 10) with
  | Some (sb, _) -> check_int "segment found" b.Allocator.seg_base sb
  | None -> Alcotest.fail "expected segment");
  check_bool "foreign address" true (Allocator.segment_of_addr ctx.Ctx.pool 1 = None);
  Ctx.destroy ctx

let prop_alloc_invariants =
  QCheck.Test.make ~name:"allocator invariants under random alloc/free" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 (4 * 1024 * 1024)))
    (fun sizes ->
      Callbacks.clear_observers ();
      let ctx = mk_ctx () in
      let live = ref [] in
      let rng = Pasta_util.Det_rng.create 11L in
      List.iter
        (fun sz ->
          if Pasta_util.Det_rng.bool rng || !live = [] then
            live := Allocator.alloc ctx.Ctx.pool sz :: !live
          else
            match !live with
            | b :: rest ->
                Allocator.free ctx.Ctx.pool b;
                live := rest
            | [] -> ())
        sizes;
      Allocator.check_invariants ctx.Ctx.pool;
      Ctx.destroy ctx;
      true)

(* ---- Tensor ---- *)

let test_tensor_lifecycle () =
  let ctx = mk_ctx () in
  let t = Tensor.create ctx.Ctx.pool ~name:"x" [ 4; 4 ] Dtype.F32 in
  check_int "bytes" 64 (Tensor.bytes t);
  check_int "numel" 16 (Tensor.numel t);
  check_bool "live" true (Tensor.is_live t);
  let allocated = Allocator.allocated_bytes ctx.Ctx.pool in
  Tensor.release t;
  check_bool "freed from pool" true (Allocator.allocated_bytes ctx.Ctx.pool < allocated);
  check_bool "dead" false (Tensor.is_live t);
  Alcotest.check_raises "double release" (Invalid_argument "Tensor.release: double release of x")
    (fun () -> Tensor.release t);
  Alcotest.check_raises "use after free" (Invalid_argument "Tensor.base: use after free of x")
    (fun () -> ignore (Tensor.base t));
  Ctx.destroy ctx

let test_tensor_refcount () =
  let ctx = mk_ctx () in
  let t = Tensor.create ctx.Ctx.pool [ 8 ] Dtype.F32 in
  ignore (Tensor.retain t);
  check_int "rc 2" 2 (Tensor.refcount t);
  Tensor.release t;
  check_bool "still live" true (Tensor.is_live t);
  Tensor.release t;
  check_bool "now dead" false (Tensor.is_live t);
  Ctx.destroy ctx

let test_tensor_reshape () =
  let ctx = mk_ctx () in
  let t = Tensor.create ctx.Ctx.pool [ 4; 4 ] Dtype.F32 in
  let t = Tensor.reshape t [ 16 ] in
  Alcotest.(check (list int)) "reshaped" [ 16 ] (Tensor.shape t);
  Alcotest.check_raises "byte mismatch"
    (Invalid_argument "Tensor.reshape: byte count mismatch") (fun () ->
      ignore (Tensor.reshape t [ 5 ]));
  Tensor.release t;
  Ctx.destroy ctx

(* ---- Ops ---- *)

let count_kernels ctx =
  let n = ref 0 in
  Gpusim.Device.add_probe ctx.Ctx.device
    {
      Gpusim.Device.probe_name = "kcount";
      on_event = (fun ev -> match ev with Gpusim.Device.Launch_end _ -> incr n | _ -> ());
    };
  n

let test_conv_out_dims () =
  let cfg =
    { Ops.n = 1; c = 3; h = 224; w = 224; oc = 64; kh = 11; kw = 11; stride = 4;
      pad = 2; algo = `Im2col; benchmark_search = false }
  in
  let oh, ow = Ops.conv_out_dims cfg in
  check_int "alexnet conv1 oh" 55 oh;
  check_int "alexnet conv1 ow" 55 ow;
  Alcotest.check_raises "degenerate" (Invalid_argument "Ops.conv_out_dims: degenerate geometry")
    (fun () -> ignore (Ops.conv_out_dims { cfg with h = 4; kh = 50 }))

let test_conv_im2col_kernels () =
  let ctx = mk_ctx () in
  let n = count_kernels ctx in
  let input = Ops.new_tensor ctx [ 4; 3; 16; 16 ] Dtype.F32 in
  let weight = Ops.new_tensor ctx [ 8; 3; 3; 3 ] Dtype.F32 in
  let cfg =
    { Ops.n = 4; c = 3; h = 16; w = 16; oc = 8; kh = 3; kw = 3; stride = 1; pad = 1;
      algo = `Im2col; benchmark_search = false }
  in
  let out = Ops.conv2d ctx ~input ~weight ~bias:None ~cfg in
  (* One im2col launch per image plus one batched GEMM. *)
  check_int "kernels = n + 1" 5 !n;
  Alcotest.(check (list int)) "output shape" [ 4; 8; 16; 16 ] (Tensor.shape out);
  Ctx.destroy ctx

let test_conv_cudnn_benchmark_search () =
  let ctx = mk_ctx () in
  let n = count_kernels ctx in
  let input = Ops.new_tensor ctx [ 2; 4; 8; 8 ] Dtype.F32 in
  let weight = Ops.new_tensor ctx [ 4; 4; 3; 3 ] Dtype.F32 in
  let cfg =
    { Ops.n = 2; c = 4; h = 8; w = 8; oc = 4; kh = 3; kw = 3; stride = 1; pad = 1;
      algo = `Cudnn; benchmark_search = true }
  in
  ignore (Ops.conv2d ctx ~input ~weight ~bias:None ~cfg);
  let first = !n in
  ignore (Ops.conv2d ctx ~input ~weight ~bias:None ~cfg:{ cfg with benchmark_search = false });
  let second = !n - first in
  check_bool "search adds the workspace transform kernel" true (first = second + 1);
  Ctx.destroy ctx

let test_linear_vendor_lowering () =
  (* NVIDIA fuses the bias; AMD issues a separate bias kernel. *)
  let kernels arch =
    let ctx = mk_ctx ~arch () in
    let n = count_kernels ctx in
    let x = Ops.new_tensor ctx [ 4; 8 ] Dtype.F32 in
    let w = Ops.new_tensor ctx [ 16; 8 ] Dtype.F32 in
    let b = Ops.new_tensor ctx [ 16 ] Dtype.F32 in
    ignore (Ops.linear ctx ~input:x ~weight:w ~bias:(Some b) ~m:4 ~k:8 ~n:16);
    let k = !n in
    Ctx.destroy ctx;
    k
  in
  check_int "nvidia: fused" 1 (kernels Gpusim.Arch.a100);
  check_int "amd: gemm + bias" 2 (kernels Gpusim.Arch.mi300x)

let test_record_function_pairing () =
  Callbacks.clear_observers ();
  let ctx = mk_ctx () in
  let events = ref [] in
  Callbacks.add_op_observer "t" (fun ev ->
      events := (ev.Callbacks.op_name, ev.Callbacks.phase, ev.Callbacks.seq) :: !events);
  let x = Ops.new_tensor ctx [ 4 ] Dtype.F32 in
  let y = Ops.relu ctx x in
  Tensor.release x;
  Tensor.release y;
  (match List.rev !events with
  | [ ("aten::relu", `Begin, s1); ("aten::relu", `End, s2) ] ->
      check_int "matching seq" s1 s2
  | _ -> Alcotest.fail "expected one begin/end pair");
  Callbacks.clear_observers ();
  Ctx.destroy ctx

let test_bbm_and_softmax_shapes () =
  let ctx = mk_ctx () in
  let a = Ops.new_tensor ctx [ 8; 4 ] Dtype.F32 in
  let b = Ops.new_tensor ctx [ 4; 8 ] Dtype.F32 in
  let c = Ops.bmm ctx ~a ~b ~m:8 ~n:8 ~k:4 ~out_shape:[ 8; 8 ] in
  Alcotest.(check (list int)) "bmm out" [ 8; 8 ] (Tensor.shape c);
  let s = Ops.softmax ctx c in
  Alcotest.(check (list int)) "softmax out" [ 8; 8 ] (Tensor.shape s);
  List.iter Tensor.release [ a; b; c; s ];
  Ctx.destroy ctx

(* ---- Layers / models: lifetime discipline ---- *)

(* After any full iteration, the only live pool bytes must be parameters
   and lazily-created persistent workspaces: activation/gradient leaks
   show up here immediately. *)
let persistent_bytes ctx model =
  let ws =
    (match ctx.Ctx.cudnn_workspace with Some t -> Tensor.bytes t | None -> 0)
    + match ctx.Ctx.cublaslt_workspace with Some t -> Tensor.bytes t | None -> 0
  in
  Layer.param_bytes model.Model.root + ws

let rounded_up bytes = Pasta_util.Bytesize.align_up bytes ~align:512

let leak_check abbr mode =
  let ctx = mk_ctx () in
  let model = Runner.build ctx abbr in
  (match mode with
  | Runner.Inference -> Model.inference_iter ctx model
  | Runner.Train -> Model.train_iter ctx model);
  let live = Allocator.allocated_bytes ctx.Ctx.pool in
  let expected = persistent_bytes ctx model in
  (* Allow the 512-byte rounding per parameter tensor. *)
  let params = List.length (Layer.all_params model.Model.root) in
  let slack = 512 * (params + 4) in
  if live > rounded_up expected + slack then
    Alcotest.failf "%s %s leaked: %d live vs %d persistent (+%d slack)" abbr
      (Runner.mode_to_string mode) live expected slack;
  Ctx.destroy ctx

let test_leaks () =
  List.iter
    (fun abbr ->
      leak_check abbr Runner.Inference;
      leak_check abbr Runner.Train)
    Runner.all_abbrs

let test_param_counts () =
  let expect = [ ("AN", 61.0, 62.0); ("RN-18", 11.0, 12.0); ("RN-34", 21.0, 22.5);
                 ("BERT", 105.0, 115.0); ("GPT-2", 160.0, 170.0); ("Whisper", 270.0, 300.0) ]
  in
  let ctx = mk_ctx () in
  List.iter
    (fun (abbr, lo, hi) ->
      let m = Runner.build ctx abbr in
      let p = float_of_int (Model.param_count m) /. 1.0e6 in
      if p < lo || p > hi then
        Alcotest.failf "%s params %.1fM outside [%.1f, %.1f]" abbr p lo hi)
    expect;
  Ctx.destroy ctx

let test_forward_shapes () =
  let ctx = mk_ctx () in
  let m = Runner.build ctx "RN-18" in
  ctx.Ctx.training <- false;
  let logits = Model.forward ctx m in
  Alcotest.(check (list int)) "resnet logits" [ 32; 1000 ] (Tensor.shape logits);
  Tensor.release logits;
  Ctx.destroy ctx

let test_unbalanced_backward () =
  let ctx = mk_ctx () in
  let l = Layer.relu ctx in
  let g = Ops.new_tensor ctx [ 4 ] Dtype.F32 in
  Alcotest.check_raises "backward without forward"
    (Invalid_argument "ReLU: backward without matching forward") (fun () ->
      ignore (Layer.backward ctx l g));
  Ctx.destroy ctx

let test_residual_projection () =
  let ctx = mk_ctx () in
  ctx.Ctx.training <- true;
  let block =
    Layer.residual ~name:"proj"
      ~skip:[ Layer.conv2d ctx ~bias:false ~in_ch:4 ~out_ch:8 ~k:1 ~stride:2 ~pad:0 ~algo:`Cudnn () ]
      [
        Layer.conv2d ctx ~bias:false ~in_ch:4 ~out_ch:8 ~k:3 ~stride:2 ~pad:1 ~algo:`Cudnn ();
        Layer.batchnorm ctx ~features:8;
      ]
  in
  let x = Ops.new_tensor ctx [ 2; 4; 8; 8 ] Dtype.F32 in
  let y = Layer.forward ctx block x in
  Alcotest.(check (list int)) "downsampled" [ 2; 8; 4; 4 ] (Tensor.shape y);
  let gin = Layer.backward ctx block y in
  Tensor.release gin;
  let pairs = Layer.take_grad_pairs block in
  check_int "grads for both branches" 3 (List.length pairs);
  List.iter (fun (_, g) -> Tensor.release g) pairs;
  Ctx.destroy ctx

let test_frozen_subtree_grads () =
  let ctx = mk_ctx () in
  let l = Layer.linear ctx ~in_features:4 ~out_features:4 () in
  (* Forward in inference mode saves nothing; take_grad_pairs must treat
     the layer as frozen rather than erroring. *)
  ctx.Ctx.training <- false;
  let x = Ops.new_tensor ctx [ 2; 4 ] Dtype.F32 in
  let y = Layer.forward ctx l x in
  Tensor.release y;
  check_int "no pairs when frozen" 0 (List.length (Layer.take_grad_pairs l));
  Ctx.destroy ctx

let test_runner_validation () =
  let ctx = mk_ctx () in
  Alcotest.check_raises "unknown model" (Invalid_argument "Runner.build: unknown model nope")
    (fun () -> ignore (Runner.build ctx "nope"));
  let m = Runner.build ctx "AN" in
  Alcotest.check_raises "bad iters" (Invalid_argument "Runner.run: iters must be positive")
    (fun () -> Runner.run ctx m ~mode:Runner.Inference ~iters:0);
  List.iter
    (fun abbr ->
      check_bool "default iters positive" true
        (Runner.default_iters ~abbr ~mode:Runner.Inference > 0
        && Runner.default_iters ~abbr ~mode:Runner.Train > 0))
    Runner.all_abbrs;
  Ctx.destroy ctx

let test_training_memory_exceeds_inference () =
  let peak abbr mode =
    let ctx = mk_ctx () in
    let m = Runner.build ctx abbr in
    (match mode with
    | Runner.Inference -> Model.inference_iter ctx m
    | Runner.Train -> Model.train_iter ctx m);
    let p = Allocator.peak_allocated ctx.Ctx.pool in
    Ctx.destroy ctx;
    p
  in
  check_bool "training holds activations" true
    (peak "BERT" Runner.Train > peak "BERT" Runner.Inference)

let suite =
  [
    ("dtype sizes", `Quick, test_dtype_sizes);
    ("shape", `Quick, test_shape);
    ("callbacks observers", `Quick, test_callbacks_observers);
    ("callbacks concurrent registration", `Quick, test_callbacks_concurrent_registration);
    ("callbacks seq", `Quick, test_callbacks_seq);
    ("allocator rounding", `Quick, test_alloc_rounding);
    ("allocator small pool segment", `Quick, test_alloc_small_pool_segment);
    ("allocator reuse", `Quick, test_alloc_reuse);
    ("allocator best fit", `Quick, test_alloc_best_fit);
    ("allocator double free", `Quick, test_alloc_double_free);
    ("allocator events", `Quick, test_alloc_events);
    ("allocator peaks", `Quick, test_alloc_peaks);
    ("allocator segment_of_addr", `Quick, test_alloc_segment_of_addr);
    qtest prop_alloc_invariants;
    ("tensor lifecycle", `Quick, test_tensor_lifecycle);
    ("tensor refcount", `Quick, test_tensor_refcount);
    ("tensor reshape", `Quick, test_tensor_reshape);
    ("conv out dims", `Quick, test_conv_out_dims);
    ("conv im2col kernels", `Quick, test_conv_im2col_kernels);
    ("conv cudnn benchmark search", `Quick, test_conv_cudnn_benchmark_search);
    ("linear vendor lowering", `Quick, test_linear_vendor_lowering);
    ("record_function pairing", `Quick, test_record_function_pairing);
    ("bmm/softmax shapes", `Quick, test_bbm_and_softmax_shapes);
    ("no activation leaks (all models, both modes)", `Slow, test_leaks);
    ("parameter counts realistic", `Quick, test_param_counts);
    ("forward shapes", `Quick, test_forward_shapes);
    ("unbalanced backward", `Quick, test_unbalanced_backward);
    ("residual projection", `Quick, test_residual_projection);
    ("frozen subtree grads", `Quick, test_frozen_subtree_grads);
    ("runner validation", `Quick, test_runner_validation);
    ("training memory exceeds inference", `Quick, test_training_memory_exceeds_inference);
  ]
