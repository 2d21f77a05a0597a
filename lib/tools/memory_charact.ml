type variant = Gpu | Gpu_parallel | Cpu_sanitizer | Cpu_nvbit

let variant_to_string = function
  | Gpu -> "CS-GPU"
  | Gpu_parallel -> "CS-GPU-PAR"
  | Cpu_sanitizer -> "CS-CPU"
  | Cpu_nvbit -> "NVBIT-CPU"

type row = {
  kernel_count : int;
  footprint_bytes : int;
  ws_bytes : int;
  ws_min : int;
  ws_mean : float;
  ws_median : float;
  ws_p90 : float;
}

type t = {
  var : variant;
  (* CPU variants rebuild the object registry from the event stream; the
     GPU variant receives already-resolved objects. *)
  own_objmap : Pasta.Objmap.t;
  mutable footprints : float list; (* reverse launch order *)
  mutable kernels : int;
  mutable peak_usage : int;
  mutable live_direct : int; (* non-pool runtime allocations *)
  current : (int, int) Hashtbl.t; (* obj_key -> obj_bytes for the running kernel *)
  mutable lo : int;
  mutable hi : int;
      (* the address range [lo, hi) the last slow lookup proved uniform,
         its object already in [current]; empty after a registry change
         and at kernel end *)
  mutable est_rate_min : float;
      (* lowest sampling rate behind any consumed summary; < 1.0 means the
         working sets are sample-based estimates *)
}

let create ?(variant = Gpu) () =
  {
    var = variant;
    own_objmap = Pasta.Objmap.create ();
    footprints = [];
    kernels = 0;
    peak_usage = 0;
    live_direct = 0;
    current = Hashtbl.create 32;
    lo = max_int;
    hi = min_int;
    est_rate_min = 1.0;
  }

let kernel_footprints t = Array.of_list (List.rev t.footprints)

let push_footprint t bytes = t.footprints <- float_of_int bytes :: t.footprints

let forget_range t =
  t.lo <- max_int;
  t.hi <- min_int

let finish_kernel_cpu t =
  let total = Hashtbl.fold (fun _ bytes acc -> acc + bytes) t.current 0 in
  Hashtbl.reset t.current;
  forget_range t;
  push_footprint t total

(* A lookup past the cached range proves a new one: a known object's
   extent, as the objmap memo has it, noting the object; or, for an
   address no object covers, the gap up to the next object's base.  An
   unknown object adds 0 bytes, so it is not noted. *)
let lookup t addr =
  (match Pasta.Objmap.resolve t.own_objmap addr with
  | Pasta.Objmap.Unknown _ ->
      t.lo <- addr;
      t.hi <- Pasta.Objmap.next_base t.own_objmap addr
  | obj ->
      let key = Pasta.Objmap.obj_key obj in
      Hashtbl.replace t.current key (Pasta.Objmap.obj_bytes obj);
      t.lo <- key;
      t.hi <- key + Pasta.Objmap.obj_bytes obj);
  t.hi

(* Note [addr]'s object as touched by the running kernel, and return the
   first address past it that may resolve differently.  Inside the cached
   range that costs two compares. *)
let touch t addr = if addr >= t.lo && addr < t.hi then t.hi else lookup t addr

let track_usage t (ev : Pasta.Event.t) =
  match ev.Pasta.Event.payload with
  | Pasta.Event.Tensor_alloc { pool_reserved; _ } | Pasta.Event.Tensor_free { pool_reserved; _ }
    ->
      t.peak_usage <- max t.peak_usage pool_reserved
  | Pasta.Event.Memory_alloc { bytes; _ } ->
      t.live_direct <- t.live_direct + bytes;
      t.peak_usage <- max t.peak_usage t.live_direct
  | Pasta.Event.Memory_free { bytes; _ } -> t.live_direct <- t.live_direct - bytes
  | _ -> ()

(* A registry change may split the cached range; every event forgets it,
   which costs at most one lookup per event. *)
let feed_own_objmap t (ev : Pasta.Event.t) =
  forget_range t;
  Pasta.Event.update_objmap t.own_objmap ev.Pasta.Event.payload

let result t =
  if t.kernels = 0 || t.footprints = [] then
    invalid_arg "Memory_charact.result: no kernels observed";
  let xs = Array.of_list (List.rev t.footprints) in
  let s = Pasta_util.Stats.summarize xs in
  {
    kernel_count = t.kernels;
    footprint_bytes = t.peak_usage;
    ws_bytes = int_of_float s.Pasta_util.Stats.max;
    ws_min = int_of_float s.Pasta_util.Stats.min;
    ws_mean = s.Pasta_util.Stats.mean;
    ws_median = s.Pasta_util.Stats.median;
    ws_p90 = s.Pasta_util.Stats.p90;
  }

let report t ppf =
  match result t with
  | exception Invalid_argument _ ->
      Format.fprintf ppf "memory_charact (%s): no kernels observed@."
        (variant_to_string t.var)
  | r ->
      Format.fprintf ppf
        "memory_charact (%s): %d kernels, footprint %a, WS %a (min %a, avg %.2f MB, \
         median %.2f MB, p90 %.2f MB)@."
        (variant_to_string t.var) r.kernel_count Pasta_util.Bytesize.pp
        r.footprint_bytes Pasta_util.Bytesize.pp r.ws_bytes Pasta_util.Bytesize.pp
        r.ws_min
        (r.ws_mean /. 1048576.0)
        (r.ws_median /. 1048576.0)
        (r.ws_p90 /. 1048576.0);
      (* Rate-1.0 runs add nothing, so exact output stays byte-identical. *)
      if t.est_rate_min < 1.0 then
        Format.fprintf ppf
          "  note: working sets estimated from sampled records (min rate %.3f)@."
          t.est_rate_min

let tool t =
  let fine_grained =
    match t.var with
    | Gpu -> Pasta.Tool.Gpu_accelerated
    | Gpu_parallel -> Pasta.Tool.Gpu_parallel
    | Cpu_sanitizer -> Pasta.Tool.Cpu_sanitizer
    | Cpu_nvbit -> Pasta.Tool.Cpu_nvbit
  in
  let base = Pasta.Tool.default ~fine_grained "memory_charact" in
  match t.var with
  | Gpu ->
      {
        base with
        Pasta.Tool.on_event = track_usage t;
        on_mem_summary =
          (fun _info summary ->
            let bytes =
              List.fold_left
                (fun acc (obj, count) ->
                  if count > 0 then acc + Pasta.Objmap.obj_bytes obj else acc)
                0 summary
            in
            push_footprint t bytes);
        on_kernel_end = (fun _ _ -> t.kernels <- t.kernels + 1);
        report = report t;
      }
  | Gpu_parallel ->
      {
        base with
        Pasta.Tool.on_event = track_usage t;
        on_device_summary =
          (fun _info summary ->
            if summary.Pasta.Devagg.est_rate < t.est_rate_min then
              t.est_rate_min <- summary.Pasta.Devagg.est_rate;
            let bytes =
              List.fold_left
                (fun acc (obj, count) ->
                  if count > 0 then acc + Pasta.Objmap.obj_bytes obj else acc)
                0 summary.Pasta.Devagg.objects
            in
            push_footprint t bytes);
        on_kernel_end = (fun _ _ -> t.kernels <- t.kernels + 1);
        report = report t;
      }
  | Cpu_sanitizer | Cpu_nvbit ->
      {
        base with
        Pasta.Tool.on_event =
          (fun ev ->
            feed_own_objmap t ev;
            track_usage t ev);
        on_access = (fun _info access -> ignore (touch t access.Pasta.Event.addr));
        on_access_columns =
          (* The sanitizer path hands records over as packed batches;
             working sets only need the addresses, so read the address
             column straight off the batch — no per-record callback or
             boxing at all.  A descriptor needs one [touch] per run of
             records inside one cached range: the record scan's other
             calls would only hit it. *)
          (if t.var = Cpu_sanitizer then
             Some
               (fun _info batch ->
                 let module W = Gpusim.Warp in
                 match batch.W.b_shape with
                 | W.Descriptor { spec; _ } ->
                     W.walk spec ~limit:(touch t) ~run:(fun _ _ -> ())
                 | W.Dense _ ->
                     let addrs = (W.cols batch).W.addrs in
                     for i = 0 to batch.W.b_len - 1 do
                       ignore (touch t (Bigarray.Array1.unsafe_get addrs i))
                     done)
           else None);
        on_kernel_end =
          (fun _ _ ->
            t.kernels <- t.kernels + 1;
            finish_kernel_cpu t);
        report = report t;
      }
