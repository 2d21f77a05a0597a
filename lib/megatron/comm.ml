module D = Gpusim.Device

type rank = { ctx : Dlfw.Ctx.t; buffer : Dlfw.Tensor.t }

type t = { ranks_ : rank array; node_fn : int -> int }

(* Inter-node interconnect (InfiniBand HDR-class), well below NVLink. *)
let internode_bw_gbps = 25.0

let create ?(node_of = fun _ -> 0) ctxs ~buffer_bytes =
  if List.length ctxs < 2 then invalid_arg "Comm.create: need at least two ranks";
  let ranks_ =
    Array.of_list
      (List.map
         (fun ctx ->
           let buffer =
             Dlfw.Tensor.create ctx.Dlfw.Ctx.pool ~name:"nccl_comm_buffer"
               [ buffer_bytes / 4 ] Dlfw.Dtype.F32
           in
           { ctx; buffer })
         ctxs)
  in
  { ranks_; node_fn = node_of }

let ranks t = Array.length t.ranks_

(* Advance every participant to the same completion instant: collectives
   are synchronizing. *)
let sync_clocks devices =
  let latest = List.fold_left (fun acc d -> Float.max acc (D.now_us d)) 0.0 devices in
  List.iter
    (fun d ->
      let now = D.now_us d in
      if now < latest then Gpusim.Clock.advance_us (D.clock d) (latest -. now))
    devices

(* One rank's share of a ring all-reduce: 2(n-1) chunk exchanges, each a
   peer copy plus a local reduction kernel over the staging buffer. *)
let ring_pass t ~rank ~bytes =
  let n = ranks t in
  let r = t.ranks_.(rank) in
  let next_rank = (rank + 1) mod n in
  let next = t.ranks_.(next_rank) in
  let chunk = max 1 (bytes / n) in
  let device = r.ctx.Dlfw.Ctx.device in
  let crosses_node = t.node_fn rank <> t.node_fn next_rank in
  for _step = 1 to 2 * (n - 1) do
    D.memcpy device
      ~dst:(Dlfw.Tensor.base next.buffer)
      ~src:(Dlfw.Tensor.base r.buffer)
      ~bytes:chunk
      ~kind:(D.Peer (D.id next.ctx.Dlfw.Ctx.device))
      ();
    if crosses_node then
      (* The chunk re-crosses the node boundary at interconnect speed. *)
      Gpusim.Clock.advance_us (D.clock device)
        (float_of_int chunk /. (internode_bw_gbps *. 1.0e9) *. 1.0e6);
    Dlfw.Kernels.launch r.ctx ~name:"ncclDevKernel_AllReduce_Sum_f32_RING_LL"
      ~regions:
        [
          Dlfw.Kernels.region ~extent:chunk r.buffer;
          Dlfw.Kernels.region ~rw:Dlfw.Kernels.Write ~extent:chunk r.buffer;
        ]
      ~flops:(float_of_int (chunk / 4))
      ~work:(chunk / 4) ()
  done

let all_reduce t ~bytes =
  Array.iteri (fun i _ -> ring_pass t ~rank:i ~bytes) t.ranks_;
  sync_clocks (Array.to_list (Array.map (fun r -> r.ctx.Dlfw.Ctx.device) t.ranks_))

let local_reduce = ring_pass

let send_recv t ~src ~dst ~bytes =
  let s = t.ranks_.(src) and d = t.ranks_.(dst) in
  let sdev = s.ctx.Dlfw.Ctx.device and ddev = d.ctx.Dlfw.Ctx.device in
  D.memcpy sdev
    ~dst:(Dlfw.Tensor.base d.buffer)
    ~src:(Dlfw.Tensor.base s.buffer)
    ~bytes
    ~kind:(D.Peer (D.id ddev))
    ();
  sync_clocks [ sdev; ddev ]

let destroy t = Array.iter (fun r -> Dlfw.Tensor.release r.buffer) t.ranks_
