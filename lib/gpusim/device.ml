type memcpy_kind = Host_to_device | Device_to_host | Device_to_device | Peer of int

type exec_stats = {
  duration_us : float;
  true_accesses : int;
  faulted_pages : int;
}

type launch_info = {
  device_id : int;
  grid_id : int;
  stream : int;
  kernel : Kernel.t;
  py_stack : Hostctx.frame list;
  native_stack : Hostctx.frame list;
}

type event =
  | Api of { name : string; phase : [ `Enter | `Exit ] }
  | Malloc of { alloc : Device_mem.alloc }
  | Free of { alloc : Device_mem.alloc }
  | Memcpy of { dst : int; src : int; bytes : int; kind : memcpy_kind; stream : int }
  | Memset of { addr : int; bytes : int; value : int; stream : int }
  | Launch_begin of launch_info
  | Launch_end of launch_info * exec_stats
  | Region_probe of { info : launch_info; spans : Instrpass.timed array }
  | Sync of [ `Device | `Stream of int ]

type probe = { probe_name : string; on_event : event -> unit }

type instrument = {
  instr_name : string;
  on_kernel_entry : launch_info -> unit;
  on_region : launch_info -> Kernel.region -> unit;
  on_batch : (launch_info -> Warp.batch -> unit) option;
  on_kernel_exit : launch_info -> exec_stats -> unit;
}

type t = {
  dev_id : int;
  arch : Arch.t;
  clock : Clock.t;
  mem : Device_mem.t;
  uvm : Uvm.t;
  rng : Pasta_util.Det_rng.t;
  key_seed : int64;  (* root of the per-chunk generation streams *)
  mutable probes : probe list;
  mutable instrument : instrument option;
  mutable grid_counter : int;
  mutable sample_cap : int;
  mutable sample_rate : float;  (* fraction of materialized records kept *)
  mutable regions : Instrpass.granularity;
  mutable faults : Faults.t option;
  mutable pool : Pasta_util.Domain_pool.t option;
  stream_busy : (int, float) Hashtbl.t; (* stream -> absolute completion us *)
}

let create ?(id = 0) ?uvm_capacity ?(seed = 0x9A57AL) arch =
  let clock = Clock.create () in
  let uvm_capacity = Option.value ~default:arch.Arch.mem_bytes uvm_capacity in
  {
    dev_id = id;
    arch;
    clock;
    mem = Device_mem.create ~capacity:arch.Arch.mem_bytes ();
    uvm = Uvm.create arch clock ~capacity:uvm_capacity;
    rng = Pasta_util.Det_rng.create (Int64.add seed (Int64.of_int id));
    key_seed = Int64.add seed (Int64.of_int id);
    probes = [];
    instrument = None;
    grid_counter = 0;
    sample_cap = 128;
    sample_rate = 1.0;
    regions = Instrpass.Off;
    faults = None;
    pool = None;
    stream_busy = Hashtbl.create 4;
  }

let id t = t.dev_id
let arch t = t.arch
let clock t = t.clock
let now_us t = Clock.now_us t.clock
let uvm t = t.uvm
let launches t = t.grid_counter

let set_sample_cap t n =
  if n <= 0 then invalid_arg "Device.set_sample_cap: must be positive";
  t.sample_cap <- n

let sample_cap t = t.sample_cap

let set_sample_rate t r =
  if not (Float.is_finite r) || r <= 0.0 then
    invalid_arg "Device.set_sample_rate: rate must be positive and finite";
  t.sample_rate <- Float.min r 1.0

let sample_rate t = t.sample_rate

let set_regions t g = t.regions <- g
let regions t = t.regions

(* Salt appended to the per-chunk key so thinning decisions come from a
   stream disjoint from the fill stream: at rate 1.0 no thinning draw is
   ever made and the fill output is byte-identical to the unsampled
   pipeline. *)
let sampling_salt = 0x5A3D

let add_probe t p = t.probes <- t.probes @ [ p ]
let remove_probe t name =
  t.probes <- List.filter (fun p -> not (String.equal p.probe_name name)) t.probes

let set_instrument t i = t.instrument <- Some i
let clear_instrument t = t.instrument <- None

let set_faults t f = t.faults <- Some f
let clear_faults t = t.faults <- None
let faults t = t.faults

let set_pool t p = t.pool <- Some p
let clear_pool t = t.pool <- None
let pool t = t.pool

(* API enter/exit events pair with phase accounting in the vendor
   substrates, and alloc/free events keep the object registry truthful, so
   fault injection never touches those; everything else on the hook bus is
   fair game for loss and duplication. *)
let droppable = function
  | Memcpy _ | Memset _ | Launch_begin _ | Launch_end _ | Sync _ -> true
  (* Region probes are exempt too: the per-region split must partition
     the kernel wall time exactly, which a dropped or duplicated span
     would silently break. *)
  | Api _ | Malloc _ | Free _ | Region_probe _ -> false

let emit t ev =
  let deliver () = List.iter (fun p -> p.on_event ev) t.probes in
  match t.faults with
  | Some f when droppable ev -> (
      match Faults.event_fate f with
      | `Deliver -> deliver ()
      | `Drop -> ()
      | `Duplicate ->
          deliver ();
          deliver ())
  | _ -> deliver ()

let api_name t suffix =
  match t.arch.Arch.vendor with
  | Arch.Nvidia -> "cuda" ^ suffix
  | Arch.Amd -> "hip" ^ suffix
  | Arch.Google -> "TpuExecutor_" ^ suffix

let with_api t name f =
  emit t (Api { name; phase = `Enter });
  let r = f () in
  emit t (Api { name; phase = `Exit });
  r

let malloc t ?(tag = "device") bytes =
  with_api t (api_name t "Malloc") @@ fun () ->
  Clock.advance_us t.clock Costmodel.malloc_time_us;
  let alloc = Device_mem.alloc t.mem ~tag ~managed:false bytes in
  emit t (Malloc { alloc });
  alloc

let malloc_managed t ?(tag = "managed") bytes =
  with_api t (api_name t "MallocManaged") @@ fun () ->
  Clock.advance_us t.clock Costmodel.malloc_time_us;
  let alloc = Device_mem.alloc t.mem ~tag ~managed:true bytes in
  Uvm.register_range t.uvm ~base:alloc.Device_mem.base ~bytes:alloc.Device_mem.bytes;
  emit t (Malloc { alloc });
  alloc

let free t base =
  with_api t (api_name t "Free") @@ fun () ->
  Clock.advance_us t.clock Costmodel.free_time_us;
  let alloc = Device_mem.free t.mem base in
  if alloc.Device_mem.managed then Uvm.unregister_range t.uvm ~base;
  emit t (Free { alloc })

let memcpy t ~dst ~src ~bytes ~kind ?(stream = 0) () =
  let suffix = match kind with Peer _ -> "MemcpyPeer" | _ -> "Memcpy" in
  with_api t (api_name t suffix) @@ fun () ->
  let kind' =
    match kind with
    | Host_to_device -> `H2d
    | Device_to_host -> `D2h
    | Device_to_device -> `D2d
    | Peer _ -> `P2p
  in
  Clock.advance_us t.clock (Costmodel.memcpy_time_us t.arch ~bytes ~kind:kind');
  emit t (Memcpy { dst; src; bytes; kind; stream })

let memset t ~addr ~bytes ~value ?(stream = 0) () =
  with_api t (api_name t "Memset") @@ fun () ->
  Clock.advance_us t.clock (Costmodel.memset_time_us t.arch ~bytes);
  emit t (Memset { addr; bytes; value; stream })

(* One region probe carries every span of the instrumentation pass for
   the launch.  It is emitted after the launch's execution has been
   charged and never advances the clock: with regions off the simulated
   timeline — and hence every analysis that ignores region events — is
   byte-identical to a run without the pass. *)
let emit_regions t info ~t0 ~wall =
  match t.regions with
  | Instrpass.Off -> ()
  | g -> (
      match Instrpass.timeline t.arch info.kernel g ~t0 ~wall with
      | [||] -> ()
      | spans -> emit t (Region_probe { info; spans }))

let launch t ?(stream = 0) kernel =
  let api =
    match t.arch.Arch.vendor with
    | Arch.Nvidia -> "cuLaunchKernel"
    | Arch.Amd -> "hipModuleLaunchKernel"
    | Arch.Google -> "TpuExecutor_ExecuteProgram"
  in
  with_api t api @@ fun () ->
  t.grid_counter <- t.grid_counter + 1;
  let info =
    {
      device_id = t.dev_id;
      grid_id = t.grid_counter;
      stream;
      kernel;
      py_stack = Hostctx.snapshot Hostctx.Python;
      native_stack = Hostctx.snapshot Hostctx.Native;
    }
  in
  emit t (Launch_begin info);
  (match t.instrument with Some i -> i.on_kernel_entry info | None -> ());
  (* Demand-migrate managed pages the kernel touches. *)
  let faulted = ref 0 in
  List.iter
    (fun (r : Kernel.region) ->
      Uvm.touch t.uvm ~base:r.Kernel.base ~bytes:r.Kernel.bytes ~faulted_pages:faulted)
    kernel.Kernel.regions;
  (match t.faults with
  | Some f -> ignore (Faults.ecc_check f t.mem : int option)
  | None -> ());
  let duration = Costmodel.kernel_time_us t.arch kernel in
  let duration =
    match t.faults with
    | Some f -> Faults.kernel_duration_us f duration
    | None -> duration
  in
  let kernel_t0 = Clock.now_us t.clock in
  Clock.advance_us t.clock duration;
  (match t.instrument with
  | None -> ()
  | Some i -> (
      List.iter (fun r -> i.on_region info r) kernel.Kernel.regions;
      match i.on_batch with
      | None -> ()
      | Some on_batch ->
          (* Chunked generation: the chunk layout and every per-chunk RNG
             stream are pure functions of (kernel, sample cap, grid_id), so
             running the chunks inline or on a pool of any size yields the
             same batches.  The merge below walks the plan order, giving
             downstream consumers one deterministic record stream. *)
          let specs = Warp.plan ~max_records_per_region:t.sample_cap kernel in
          let warp_size = t.arch.Arch.warp_size in
          let corrupts =
            match t.faults with
            | Some f -> (Faults.rates f).Faults.corrupt_access > 0.0
            | None -> false
          in
          (* A closed-form chunk travels as its descriptor, built here in
             O(1) — unless thinning or corruption would change its
             records.  Only the other chunks are filled, on the pool when
             there is one. *)
          let described =
            if t.sample_rate >= 1.0 && not corrupts then Warp.closed_form else fun _ -> false
          in
          let dense = Array.of_seq (Seq.filter (fun s -> not (described s)) (Array.to_seq specs)) in
          let ndense = Array.length dense in
          let corrupt =
            match t.faults with
            | Some f ->
                let rates = Faults.rates f and fseed = Faults.seed f in
                fun b -> Faults.corrupt_batch ~rates ~seed:fseed ~grid_id:info.grid_id b
            | None -> fun _ -> 0
          in
          let rate = t.sample_rate in
          let gen idx =
            let spec = dense.(idx) in
            let rng =
              Pasta_util.Det_rng.of_key t.key_seed
                [| info.grid_id; spec.Warp.cs_region_idx; spec.Warp.cs_chunk |]
            in
            let b = Warp.fill_chunk ~rng ~warp_size spec in
            let b =
              if rate >= 1.0 then b
              else
                let srng =
                  Pasta_util.Det_rng.of_key t.key_seed
                    [|
                      info.grid_id;
                      spec.Warp.cs_region_idx;
                      spec.Warp.cs_chunk;
                      sampling_salt;
                    |]
                in
                Warp.thin ~rng:srng ~rate b
            in
            (b, corrupt b)
          in
          let results =
            match t.pool with
            | Some p when Pasta_util.Domain_pool.size p > 1 && ndense > 1 ->
                Pasta_util.Domain_pool.map p ndense gen
            | _ -> Array.init ndense gen
          in
          let deliver (b, corrupted) =
            (match t.faults with
            | Some f when corrupted > 0 -> Faults.note_corrupted f corrupted
            | _ -> ());
            (* Thinning can empty a chunk; delivering a zero-record batch
               would only burn ring-buffer and dispatch work. *)
            if Warp.batch_len b > 0 then on_batch info b
          in
          (* Merge in plan order: dense results in their turn, descriptors
             between them. *)
          let next = ref 0 in
          Array.iter
            (fun spec ->
              if described spec then
                on_batch info (Warp.describe ~warp_size spec)
              else begin
                deliver results.(!next);
                incr next
              end)
            specs));
  let true_accesses = Kernel.total_accesses kernel in
  let stats = { duration_us = duration; true_accesses; faulted_pages = !faulted } in
  (match t.instrument with Some i -> i.on_kernel_exit info stats | None -> ());
  emit_regions t info ~t0:kernel_t0 ~wall:stats.duration_us;
  emit t (Launch_end (info, stats));
  stats

let stream_busy_until t s =
  Float.max (Clock.now_us t.clock)
    (Option.value ~default:0.0 (Hashtbl.find_opt t.stream_busy s))

let join_host_with t completion =
  let now = Clock.now_us t.clock in
  if completion > now then Clock.advance_us t.clock (completion -. now)

(* Enqueue [duration] of work on a stream, charging the host only the
   submission cost.  Returns the absolute start of the enqueued work on
   the stream timeline. *)
let enqueue t ~stream ~submit_us ~duration =
  Clock.advance_us t.clock submit_us;
  let start = stream_busy_until t stream in
  Hashtbl.replace t.stream_busy stream (start +. duration);
  start

let launch_async t ~stream kernel =
  if t.instrument <> None then
    (* Instrumentation serializes execution, as on real hardware. *)
    launch t ~stream kernel
  else begin
    let api =
      match t.arch.Arch.vendor with
      | Arch.Nvidia -> "cuLaunchKernel"
      | Arch.Amd -> "hipModuleLaunchKernel"
      | Arch.Google -> "TpuExecutor_ExecuteProgram"
    in
    with_api t api @@ fun () ->
    t.grid_counter <- t.grid_counter + 1;
    let info =
      {
        device_id = t.dev_id;
        grid_id = t.grid_counter;
        stream;
        kernel;
        py_stack = Hostctx.snapshot Hostctx.Python;
        native_stack = Hostctx.snapshot Hostctx.Native;
      }
    in
    emit t (Launch_begin info);
    let faulted = ref 0 in
    List.iter
      (fun (r : Kernel.region) ->
        Uvm.touch t.uvm ~base:r.Kernel.base ~bytes:r.Kernel.bytes ~faulted_pages:faulted)
      kernel.Kernel.regions;
    (match t.faults with
    | Some f -> ignore (Faults.ecc_check f t.mem : int option)
    | None -> ());
    let duration = Costmodel.kernel_time_us t.arch kernel in
    let duration =
      match t.faults with
      | Some f -> Faults.kernel_duration_us f duration
      | None -> duration
    in
    let start =
      enqueue t ~stream ~submit_us:t.arch.Arch.launch_overhead_us
        ~duration:(duration -. t.arch.Arch.launch_overhead_us)
    in
    let stats =
      {
        duration_us = duration;
        true_accesses = Kernel.total_accesses kernel;
        faulted_pages = !faulted;
      }
    in
    (* The stream timeline excludes the submission cost, so anchor the
       region split at [start - overhead] to keep the invariant that the
       spans cover exactly [duration_us]. *)
    emit_regions t info
      ~t0:(start -. t.arch.Arch.launch_overhead_us)
      ~wall:stats.duration_us;
    emit t (Launch_end (info, stats));
    stats
  end

let memcpy_async t ~dst ~src ~bytes ~kind ~stream =
  if t.instrument <> None then memcpy t ~dst ~src ~bytes ~kind ~stream ()
  else begin
    let suffix = match kind with Peer _ -> "MemcpyPeerAsync" | _ -> "MemcpyAsync" in
    with_api t (api_name t suffix) @@ fun () ->
    let kind' =
      match kind with
      | Host_to_device -> `H2d
      | Device_to_host -> `D2h
      | Device_to_device -> `D2d
      | Peer _ -> `P2p
    in
    let duration = Costmodel.memcpy_time_us t.arch ~bytes ~kind:kind' in
    let (_ : float) = enqueue t ~stream ~submit_us:2.0 ~duration:(duration -. 2.0) in
    emit t (Memcpy { dst; src; bytes; kind; stream })
  end

let synchronize t =
  with_api t (api_name t "DeviceSynchronize") @@ fun () ->
  Hashtbl.iter (fun _ completion -> join_host_with t completion) t.stream_busy;
  Clock.advance_us t.clock 3.0;
  emit t (Sync `Device)

let stream_synchronize t s =
  with_api t (api_name t "StreamSynchronize") @@ fun () ->
  join_host_with t (stream_busy_until t s);
  Clock.advance_us t.clock 2.0;
  emit t (Sync (`Stream s))
