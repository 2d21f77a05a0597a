(* Case-study tool tests: kernel frequency, working sets, hotness,
   timelines, the UVM prefetcher and the end-to-end UVM experiment. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module MC = Pasta_tools.Memory_charact
module UX = Pasta_tools.Uvm_experiment

let small_gpt2 ctx = Dlfw.Gpt2.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx

let with_session ?range tool f =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let (), result = Pasta.Session.run ?range ~tool device (fun () -> f ctx) in
  Dlfw.Ctx.destroy ctx;
  result

(* ---- Kernel_freq ---- *)

let test_kernel_freq_counts () =
  let kf = Pasta_tools.Kernel_freq.create () in
  let result =
    with_session (Pasta_tools.Kernel_freq.tool kf) (fun ctx ->
        let m = small_gpt2 ctx in
        Dlfw.Model.inference_iter ctx m)
  in
  check_int "tool count equals session count" result.Pasta.Session.kernels
    (Pasta_tools.Kernel_freq.total_launches kf);
  check_bool "distinct kernels" true (Pasta_tools.Kernel_freq.distinct_kernels kf > 5);
  (match Pasta_tools.Kernel_freq.top kf 3 with
  | (_, a) :: (_, b) :: _ -> check_bool "sorted" true (a >= b)
  | _ -> Alcotest.fail "expected top kernels");
  check_bool "most called tracked" true (Pasta_tools.Kernel_freq.most_called kf <> None);
  check_bool "most mem tracked" true
    (Pasta_tools.Kernel_freq.most_mem_referenced kf <> None);
  let report = Format.asprintf "%t" (Pasta_tools.Kernel_freq.report kf) in
  check_bool "report mentions launches" true (Astring_contains.contains report "launches")

(* ---- Memory_charact ---- *)

let run_mc variant =
  let mc = MC.create ~variant () in
  let _ =
    with_session (MC.tool mc) (fun ctx ->
        let m = small_gpt2 ctx in
        Dlfw.Model.inference_iter ctx m)
  in
  MC.result mc

let test_mc_variants_agree () =
  let g = run_mc MC.Gpu in
  let cs = run_mc MC.Cpu_sanitizer in
  let nv = run_mc MC.Cpu_nvbit in
  (* All three analysis models must compute identical working sets; only
     their cost differs (paper Fig. 8). *)
  check_int "gpu vs cs-cpu kernels" g.MC.kernel_count cs.MC.kernel_count;
  check_int "gpu vs cs-cpu ws" g.MC.ws_bytes cs.MC.ws_bytes;
  check_int "gpu vs nvbit ws" g.MC.ws_bytes nv.MC.ws_bytes;
  check_int "footprints agree" g.MC.footprint_bytes cs.MC.footprint_bytes

let test_mc_ordering () =
  let r = run_mc MC.Gpu in
  check_bool "min <= median" true (float_of_int r.MC.ws_min <= r.MC.ws_median);
  check_bool "median <= p90" true (r.MC.ws_median <= r.MC.ws_p90);
  check_bool "p90 <= max" true (r.MC.ws_p90 <= float_of_int r.MC.ws_bytes);
  check_bool "ws <= footprint" true (r.MC.ws_bytes <= r.MC.footprint_bytes)

let test_mc_empty () =
  let mc = MC.create () in
  Alcotest.check_raises "no kernels"
    (Invalid_argument "Memory_charact.result: no kernels observed") (fun () ->
      ignore (MC.result mc))

let test_mc_footprints_per_kernel () =
  let mc = MC.create ~variant:MC.Gpu () in
  let result =
    with_session (MC.tool mc) (fun ctx ->
        let m = small_gpt2 ctx in
        Dlfw.Model.inference_iter ctx m)
  in
  let fp = MC.kernel_footprints mc in
  check_int "one footprint per kernel" result.Pasta.Session.kernels (Array.length fp)

(* ---- The CS-CPU and NVBit working sets' range cache ---- *)

(* [Objmap.next_base] gives an unknown address its gap: the lowest base
   above it, of an allocation or a tensor, or [max_int] past the last. *)
let test_objmap_next_base () =
  let m = Pasta.Objmap.create () in
  let next addr = Pasta.Objmap.next_base m addr in
  check_int "no object" max_int (next 0);
  Pasta.Objmap.on_alloc m ~addr:0x1000 ~bytes:0x100 ~managed:false;
  Pasta.Objmap.on_tensor_alloc m ~ptr:0x1040 ~bytes:0x10 ~tag:"t";
  Pasta.Objmap.on_alloc m ~addr:0x2000 ~bytes:0x100 ~managed:false;
  check_int "below the first object" 0x1000 (next 0x800);
  check_int "at a base, the next one above it" 0x1040 (next 0x1000);
  check_int "inside an allocation, its nested tensor" 0x1040 (next 0x1010);
  check_int "inside one, past its tensor" 0x2000 (next 0x1050);
  check_int "between two" 0x2000 (next 0x1800);
  check_int "past the last" max_int (next 0x2050);
  Pasta.Objmap.on_free m ~addr:0x2000;
  check_int "a freed object leaves its gap" max_int (next 0x1800)

(* A random object layout driven by random address streams.  A kernel
   first frees some objects, then runs items: new allocations and tensors
   (nested in a live allocation, or anywhere), sequential walks and
   strides, jumps anywhere (gaps included), the last address touched
   again (as the next kernel reads what the last one wrote), and
   closed-form chunks.  All offsets are from [mc_base]. *)
let mc_base = 0x10000

type mc_item =
  | Alloc of int * int
  | Tensor of int * int * int  (* live allocation (mod count), offset, bytes *)
  | Walk of int * int * int  (* first address, step, records *)
  | Jump of int list
  | Last  (* the last address any item touched, again *)
  | Chunks of int * int * Gpusim.Kernel.pattern * int * int
      (* base, bytes, pattern, accesses, sample cap *)

let ( let* ) = QCheck.Gen.( >>= )

let g_mc_kernel =
  let open QCheck.Gen in
  let addr = int_range (-512) (8192 + 512) in
  let item =
    frequency
      [
        (2, map2 (fun a b -> Alloc (a, b)) (int_range 0 8191) (int_range 1 1024));
        (2, map3 (fun i o b -> Tensor (i, o, b)) nat (int_range 0 1023) (int_range 1 512));
        (3, map3 (fun a st n -> Walk (a, st, n)) addr (oneofl [ 1; 4; 12; 64; 256 ]) (int_range 1 64));
        (2, map (fun l -> Jump l) (list_size (int_range 1 16) addr));
        (1, return Last);
        ( 1,
          let* base = int_range (-256) 8192 in
          let* bytes = int_range 1 9000 in
          let* pattern =
            oneof [ return Gpusim.Kernel.Sequential; map (fun s -> Gpusim.Kernel.Strided s) (int_range 0 600) ]
          in
          let* accesses = int_range 1 5000 in
          let* cap = int_range 1 2048 in
          return (Chunks (base, bytes, pattern, accesses, cap)) );
      ]
  in
  pair
    (frequency [ (2, return []); (1, list_size (int_range 1 3) nat) ])
    (list_size (int_range 1 8) item)

let print_mc_case kernels =
  String.concat " / "
    (List.map
       (fun (frees, items) ->
         Printf.sprintf "free %s: %s"
           (String.concat "," (List.map string_of_int frees))
           (String.concat "; "
              (List.map
                 (function
                   | Alloc (a, b) -> Printf.sprintf "alloc %d:%d" a b
                   | Tensor (i, o, b) -> Printf.sprintf "tensor #%d+%d:%d" i o b
                   | Walk (a, st, n) -> Printf.sprintf "walk %d+%d*%d" a st n
                   | Jump l -> "jump " ^ String.concat "," (List.map string_of_int l)
                   | Last -> "last"
                   | Chunks (a, b, p, acc, cap) ->
                       Printf.sprintf "chunks %d:%d %s %d cap %d" a b
                         (match p with Gpusim.Kernel.Strided s -> Printf.sprintf "stride %d" s | _ -> "seq")
                         acc cap)
                 items)))
       kernels)

let mc_info =
  {
    Pasta.Event.device_id = 0;
    grid_id = 1;
    stream = 0;
    name = "ranges";
    grid = Gpusim.Dim3.make 1;
    block = Gpusim.Dim3.make 32;
    shared_bytes = 0;
    arg_ptrs = [];
    py_stack = [];
    native_stack = [];
  }

(* Per-kernel working sets of the NVBit tool (every record through
   [on_access]), of the CS-CPU tool (a walk or jump as one dense batch,
   a chunk as its descriptor, through [on_access_columns]) and of a
   reference that resolves every record and notes every object it gets,
   as the tools did before they cached ranges. *)
let mc_footprints kernels =
  let nv = MC.create ~variant:MC.Cpu_nvbit () and cs = MC.create ~variant:MC.Cpu_sanitizer () in
  let tools = [ MC.tool nv; MC.tool cs ] in
  let m = Pasta.Objmap.create () and current = Hashtbl.create 16 and reference = ref [] in
  let allocs = ref [] and tensors = ref [] in
  let event payload =
    List.iter (fun tl -> tl.Pasta.Tool.on_event { Pasta.Event.device = 0; time_us = 0.0; payload }) tools;
    match payload with
    | Pasta.Event.Memory_alloc { addr; bytes; managed } ->
        Pasta.Objmap.on_alloc m ~addr ~bytes ~managed;
        allocs := (addr, bytes) :: !allocs
    | Pasta.Event.Memory_free { addr; _ } ->
        Pasta.Objmap.on_free m ~addr;
        allocs := List.filter (fun (a, _) -> a <> addr) !allocs
    | Pasta.Event.Tensor_alloc { ptr; bytes; tag; _ } ->
        Pasta.Objmap.on_tensor_alloc m ~ptr ~bytes ~tag;
        tensors := ptr :: !tensors
    | Pasta.Event.Tensor_free { ptr; _ } ->
        Pasta.Objmap.on_tensor_free m ~ptr;
        tensors := List.filter (( <> ) ptr) !tensors
    | _ -> ()
  in
  let last = ref mc_base in
  let records addrs =
    if Array.length addrs > 0 then last := addrs.(Array.length addrs - 1);
    Array.iter
      (fun addr ->
        let obj = Pasta.Objmap.resolve m addr in
        Hashtbl.replace current (Pasta.Objmap.obj_key obj) (Pasta.Objmap.obj_bytes obj);
        (List.hd tools).Pasta.Tool.on_access mc_info
          { Pasta.Event.addr; size = 4; write = false; pc = 0; warp = 0; weight = 1 })
      addrs
  in
  let columns b = (Option.get (List.nth tools 1).Pasta.Tool.on_access_columns) mc_info b in
  let dense addrs =
    let n = Array.length addrs in
    Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0 ~addrs ~sizes:(Array.make n 4)
      ~warps:(Array.make n 0) ~weights:(Array.make n 1) ~writes:(Bytes.make n '\000')
  in
  let nth l i = List.nth l (i mod List.length l) in
  List.iter
    (fun (frees, items) ->
      List.iter
        (fun i ->
          match (!allocs, !tensors) with
          | [], [] -> ()
          | a, t when i mod 2 = 0 && a <> [] || t = [] ->
              let addr, bytes = nth a i in
              event (Pasta.Event.Memory_free { addr; bytes })
          | _, t ->
              event
                (Pasta.Event.Tensor_free
                   { ptr = nth t i; bytes = 0; pool_allocated = 0; pool_reserved = 0 }))
        frees;
      List.iter
        (function
          | Alloc (off, bytes) ->
              event (Pasta.Event.Memory_alloc { addr = mc_base + off; bytes; managed = false })
          | Tensor (i, off, bytes) ->
              let ptr, bytes =
                match !allocs with
                | [] -> (mc_base + (8 * off), bytes)
                | a ->
                    let base, size = nth a i in
                    (base + (off mod size), Int.min bytes (size - (off mod size)))
              in
              event
                (Pasta.Event.Tensor_alloc
                   { ptr; bytes; pool_allocated = 0; pool_reserved = 0; tag = "t" })
          | Walk (first, step, n) ->
              let addrs = Array.init n (fun j -> mc_base + first + (step * j)) in
              records addrs;
              columns (dense addrs)
          | Jump offs ->
              let addrs = Array.of_list (List.map (fun o -> mc_base + o) offs) in
              records addrs;
              columns (dense addrs)
          | Last ->
              let addrs = [| !last |] in
              records addrs;
              columns (dense addrs)
          | Chunks (off, bytes, pattern, accesses, cap) ->
              let k =
                Gpusim.Kernel.make ~name:"chunks" ~grid:(Gpusim.Dim3.make 1)
                  ~block:(Gpusim.Dim3.make 32)
                  ~regions:[ Gpusim.Kernel.region ~pattern ~base:(mc_base + off) ~bytes ~accesses () ]
                  ()
              in
              Array.iter
                (fun spec ->
                  let d = Gpusim.Warp.describe ~warp_size:32 spec in
                  let addrs = (Gpusim.Warp.cols d).Gpusim.Warp.addrs in
                  records (Array.init (Gpusim.Warp.batch_len d) (fun j -> addrs.{j}));
                  columns d)
                (Gpusim.Warp.plan ~max_records_per_region:cap k))
        items;
      List.iter
        (fun tl ->
          tl.Pasta.Tool.on_kernel_end mc_info
            { Pasta.Event.duration_us = 0.0; true_accesses = 0; faulted_pages = 0 })
        tools;
      reference := float_of_int (Hashtbl.fold (fun _ b acc -> acc + b) current 0) :: !reference;
      Hashtbl.reset current)
    kernels;
  (MC.kernel_footprints nv, MC.kernel_footprints cs, Array.of_list (List.rev !reference))

(* The cached range answers as a lookup per record would: per kernel,
   both tools' working sets equal the reference's.  Objects are only
   freed between kernels, as a live run frees them, but allocated
   anywhere, so a range cached before an allocation must be dropped. *)
let prop_mc_range_cache =
  QCheck.Test.make ~name:"working-set range cache equals a lookup per record" ~count:500
    (QCheck.make ~print:print_mc_case QCheck.Gen.(list_size (int_range 1 6) g_mc_kernel))
    (fun kernels ->
      let nv, cs, reference = mc_footprints kernels in
      nv = reference && cs = reference)

(* ---- Mem_timeline ---- *)

let test_mem_timeline () =
  let mt = Pasta_tools.Mem_timeline.create () in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let (), _ =
    Pasta.Session.run ~tool:(Pasta_tools.Mem_timeline.tool mt) device (fun () ->
        let m = small_gpt2 ctx in
        Dlfw.Model.train_iter ctx m)
  in
  check_bool "alloc events seen" true (Pasta_tools.Mem_timeline.alloc_events mt > 10);
  check_bool "free events seen" true (Pasta_tools.Mem_timeline.free_events mt > 10);
  (* The tool's peak must match the allocator's true peak (params are
     allocated before the session attaches, so compare against live
     tracking tolerance: the tool sees everything allocated during the
     session). *)
  check_bool "peak positive" true (Pasta_tools.Mem_timeline.peak_bytes mt > 0.0);
  let s = Pasta_tools.Mem_timeline.series mt ~buckets:16 in
  check_int "series buckets" 16 (Array.length s);
  Dlfw.Ctx.destroy ctx

(* ---- Hotness ---- *)

let test_hotness_matrix () =
  let hot = Pasta_tools.Hotness.create ~time_buckets:8 () in
  let _ =
    with_session (Pasta_tools.Hotness.tool hot) (fun ctx ->
        let m = small_gpt2 ctx in
        Dlfw.Model.inference_iter ctx m;
        Dlfw.Model.inference_iter ctx m)
  in
  let matrix = Pasta_tools.Hotness.matrix hot in
  check_bool "blocks observed" true (Array.length matrix > 0);
  Array.iter (fun row -> check_int "row width" 8 (Array.length row)) matrix;
  let classes = Pasta_tools.Hotness.classify hot in
  check_int "one class per block" (Array.length matrix) (List.length classes);
  (* Model parameters are accessed in both iterations: some block must be
     persistent-hot. *)
  check_bool "persistent-hot blocks exist" true
    (Pasta_tools.Hotness.prefetch_candidates hot <> []);
  let report = Format.asprintf "%t" (fun ppf -> Pasta_tools.Hotness.report hot ppf) in
  check_bool "report renders" true (Astring_contains.contains report "blocks")

let test_hotness_empty () =
  let hot = Pasta_tools.Hotness.create () in
  check_int "empty matrix" 0 (Array.length (Pasta_tools.Hotness.matrix hot));
  let report = Format.asprintf "%t" (fun ppf -> Pasta_tools.Hotness.report hot ppf) in
  check_bool "empty report" true (Astring_contains.contains report "no accesses")

(* BERT inference reports, pinned when samples were a list of tuples and
   every report built its matrix three times: the fine tool at two caps
   (the second sampled at a fixed rate) and the coarse tool, each at 1
   and 2 domains. *)
let test_hotness_pinned_digests () =
  Pasta_tools.Tools.register_all ();
  let digest ~cap ?rate key =
    let device = Gpusim.Device.create Gpusim.Arch.a100 in
    let ctx = Dlfw.Ctx.create device in
    let tool = (Option.get (Pasta.Registry.find key)) () in
    let (), r =
      Pasta.Session.run ~sample_cap:cap ?sample_rate:rate ~tool device (fun () ->
          Dlfw.Runner.run ctx (Dlfw.Runner.build ctx "BERT") ~mode:Dlfw.Runner.Inference
            ~iters:1)
    in
    Dlfw.Ctx.destroy ctx;
    Digest.to_hex (Digest.string (Format.asprintf "%t" r.Pasta.Session.report))
  in
  Fun.protect ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_DOMAINS") @@ fun () ->
  List.iter
    (fun domains ->
      Pasta.Config.set "ACCEL_PROF_DOMAINS" domains;
      let check what md5 got = Alcotest.(check string) (what ^ " @ " ^ domains) md5 got in
      check "hotness_fine, cap 16384" "7328ea47fac69bb32fe4052f44e3f369"
        (digest ~cap:16384 "hotness_fine");
      check "hotness, cap 16384" "f01720c23c86aacddc44e21c94c29685"
        (digest ~cap:16384 "hotness");
      check "hotness_fine, cap 4096, rate 0.5" "3b0c584186a9deae4254dcf6a26d3157"
        (digest ~cap:4096 ~rate:0.5 "hotness_fine"))
    [ "1"; "2" ]

(* A naive model of the coarse tool: samples in a list, newest first,
   each matrix cell summed in list order, and every row sorted by
   polymorphic compare to find its top windows. *)
module Ref_hotness = struct
  module H = Pasta_tools.Hotness

  let samples events =
    List.fold_left
      (fun acc (time, base, extent, accesses) ->
        if extent > 0 && accesses > 0 then begin
          let b0 = base / H.block_bytes and b1 = (base + extent - 1) / H.block_bytes in
          let share = float_of_int accesses /. float_of_int (b1 - b0 + 1) in
          let acc = ref acc in
          for b = b0 to b1 do
            acc := (time, b, share) :: !acc
          done;
          !acc
        end
        else acc)
      [] events

  let matrix ~buckets = function
    | [] -> [||]
    | samples ->
        let fold f init = List.fold_left f init samples in
        let t_min = fold (fun a (t, _, _) -> Float.min a t) infinity in
        let t_max = fold (fun a (t, _, _) -> Float.max a t) neg_infinity in
        let bmin = fold (fun a (_, b, _) -> min a b) max_int in
        let bmax = fold (fun a (_, b, _) -> max a b) min_int in
        let span = Float.max 1.0 (t_max -. t_min) in
        let m = Array.make_matrix (bmax - bmin + 1) buckets 0.0 in
        List.iter
          (fun (time, b, c) ->
            let col =
              min (buckets - 1) (int_of_float ((time -. t_min) /. span *. float_of_int buckets))
            in
            m.(b - bmin).(col) <- m.(b - bmin).(col) +. c)
          samples;
        m

  let classify m =
    Array.to_list
      (Array.mapi
         (fun i row ->
           let total = Array.fold_left ( +. ) 0.0 row in
           let active = Array.fold_left (fun n v -> if v > 0.0 then n + 1 else n) 0 row in
           let buckets = Array.length row in
           if total <= 0.0 then (i, H.Cold)
           else if float_of_int active >= 0.6 *. float_of_int buckets then (i, H.Persistent_hot)
           else begin
             let sorted = Array.copy row in
             Array.sort (fun a b -> compare b a) sorted;
             let top = ref 0.0 in
             for j = 0 to max 1 (buckets / 5) - 1 do
               top := !top +. sorted.(j)
             done;
             (i, if !top >= 0.9 *. total then H.Bursty else H.Cold)
           end)
         m)
end

(* Region events with shares that do not divide evenly, timestamps drawn
   from a small set (so cells sum several samples, in an order that
   shows in the last bits) and ranges spanning several blocks. *)
let prop_hotness_matches_reference =
  let module H = Pasta_tools.Hotness in
  let g_event =
    QCheck.Gen.(
      quad
        (map (fun k -> 0.25 *. float_of_int k) (int_range 0 40))
        (int_range 0 (24 * H.block_bytes))
        (oneof [ int_range 0 64; int_range 1 (6 * H.block_bytes) ])
        (int_range 0 999))
  in
  QCheck.Test.make ~name:"hotness matrix and classes = naive reference, bit for bit"
    ~count:300
    (QCheck.make
       ~print:(fun (b, evs) -> Printf.sprintf "%d buckets, %d events" b (List.length evs))
       QCheck.Gen.(pair (int_range 1 48) (list_size (int_range 0 80) g_event)))
    (fun (buckets, events) ->
      let hot = H.create ~time_buckets:buckets () in
      let tool = H.tool hot in
      let kernel = Test_pasta_core.mk_kernel_info () in
      List.iter
        (fun (time_us, base, extent, accesses) ->
          tool.Pasta.Tool.on_event
            {
              Pasta.Event.device = 0;
              time_us;
              payload =
                Pasta.Event.Kernel_region
                  { kernel; region = { Pasta.Event.base; extent; accesses; written = false } };
            })
        events;
      let expect = Ref_hotness.matrix ~buckets (Ref_hotness.samples events) in
      let got = H.matrix hot in
      let bits m = Array.map (Array.map Int64.bits_of_float) m in
      let classes = Ref_hotness.classify expect in
      let having c = List.filter_map (fun (i, c') -> if c' = c then Some i else None) classes in
      bits got = bits expect
      && H.classify hot = classes
      && H.prefetch_candidates hot = having H.Persistent_hot
      && H.evict_candidates hot = having H.Bursty
      && H.block_count hot = Array.length expect)

(* ---- Uvm_prefetch ---- *)

let test_prefetch_plans () =
  let rec_ = Pasta_tools.Uvm_prefetch.recorder () in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create ~managed:true device in
  let (), result =
    Pasta.Session.run ~tool:(Pasta_tools.Uvm_prefetch.recorder_tool rec_) device
      (fun () ->
        let m = small_gpt2 ctx in
        Dlfw.Model.inference_iter ctx m)
  in
  let obj = Pasta_tools.Uvm_prefetch.plan_of rec_ Pasta_tools.Uvm_prefetch.Object_level in
  let ten = Pasta_tools.Uvm_prefetch.plan_of rec_ Pasta_tools.Uvm_prefetch.Tensor_level in
  check_int "plan covers every kernel"
    result.Pasta.Session.kernels
    (Pasta_tools.Uvm_prefetch.plan_kernels obj);
  check_bool "tensor plans at least as fine" true
    (Pasta_tools.Uvm_prefetch.plan_ranges ten
    >= Pasta_tools.Uvm_prefetch.plan_ranges obj);
  Dlfw.Ctx.destroy ctx

let test_prefetch_probe_install_remove () =
  let rec_ = Pasta_tools.Uvm_prefetch.recorder () in
  let plan = Pasta_tools.Uvm_prefetch.plan_of rec_ Pasta_tools.Uvm_prefetch.Tensor_level in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  Pasta_tools.Uvm_prefetch.install plan device;
  Pasta_tools.Uvm_prefetch.remove device;
  (* Removing twice is harmless. *)
  Pasta_tools.Uvm_prefetch.remove device

(* ---- Uvm_experiment ---- *)

let test_uvm_experiment_no_oversub () =
  let o = UX.run ~arch:Gpusim.Arch.a100 ~oversub:1.0 "BERT" in
  check_bool "prefetching helps without oversubscription" true
    (UX.speedup o `Object > 1.0 && UX.speedup o `Tensor > 1.0);
  check_int "no thrashing" 0 o.UX.baseline.UX.refaults;
  check_bool "footprint measured" true (o.UX.footprint_bytes > 0);
  check_int "full capacity" Gpusim.Arch.a100.Gpusim.Arch.mem_bytes o.UX.capacity_bytes

let test_uvm_experiment_oversub () =
  (* AlexNet's pool segments bundle the huge im2col buffers with the
     activations, so object-level prefetching thrashes at 3x (paper
     Fig. 12). *)
  let o = UX.run ~arch:Gpusim.Arch.a100 ~oversub:3.0 "AN" in
  check_bool "capacity limited" true (o.UX.capacity_bytes < o.UX.footprint_bytes);
  check_bool "baseline thrashes" true (o.UX.baseline.UX.refaults > 0);
  check_bool "object-level thrashes harder than tensor-level" true
    (o.UX.object_level.UX.refaults > o.UX.tensor_level.UX.refaults);
  check_bool "tensor-level beats object-level under pressure" true
    (UX.speedup o `Tensor > UX.speedup o `Object);
  check_bool "object-level prefetch hurts under pressure" true
    (UX.speedup o `Object < 1.0)

let test_uvm_experiment_train_mode () =
  (* Training under UVM exercises the same machinery; prefetching must
     still help at full capacity. *)
  let o =
    UX.run ~mode:Dlfw.Runner.Train ~iters:1 ~arch:Gpusim.Arch.a100 ~oversub:1.0 "RN-18"
  in
  check_bool "prefetch helps training too" true (UX.speedup o `Tensor > 1.0)

let test_uvm_experiment_validation () =
  check_bool "bad oversub" true
    (try
       ignore (UX.run ~arch:Gpusim.Arch.a100 ~oversub:0.0 "BERT");
       false
     with Invalid_argument _ -> true)

let test_uvm_replay_determinism () =
  let a = UX.run ~arch:Gpusim.Arch.a100 ~oversub:2.0 "RN-18" in
  let b = UX.run ~arch:Gpusim.Arch.a100 ~oversub:2.0 "RN-18" in
  Alcotest.(check (float 0.0)) "baselines identical"
    a.UX.baseline.UX.elapsed_us b.UX.baseline.UX.elapsed_us;
  Alcotest.(check (float 0.0)) "tensor replays identical"
    a.UX.tensor_level.UX.elapsed_us b.UX.tensor_level.UX.elapsed_us

(* ---- Multi_gpu ---- *)

let test_multi_gpu_attach () =
  let d0 = Gpusim.Device.create ~id:0 Gpusim.Arch.a100 in
  let d1 = Gpusim.Device.create ~id:1 Gpusim.Arch.a100 in
  let mg =
    Pasta_tools.Multi_gpu.attach
      ~has_context:(fun d -> Gpusim.Device.id d = 0)
      [ d0; d1 ]
  in
  check_int "helper process skipped" 1 (Pasta_tools.Multi_gpu.instrumented_devices mg);
  let results = Pasta_tools.Multi_gpu.detach mg in
  check_int "one result" 1 (List.length results);
  let mg2 = Pasta_tools.Multi_gpu.attach [ d0; d1 ] in
  check_int "both instrumented" 2 (Pasta_tools.Multi_gpu.instrumented_devices mg2);
  (match Pasta_tools.Multi_gpu.timelines mg2 with
  | [ (0, _); (1, _) ] -> ()
  | _ -> Alcotest.fail "expected timelines for devices 0 and 1");
  ignore (Pasta_tools.Multi_gpu.detach mg2)

(* ---- Registry glue ---- *)

let test_register_all () =
  Pasta_tools.Tools.register_all ();
  List.iter
    (fun name ->
      check_bool name true (Pasta.Registry.find name <> None))
    [ "kernel_freq"; "memory_charact"; "memory_charact_cs_cpu";
      "memory_charact_nvbit_cpu"; "hotness"; "mem_timeline" ]

let test_registered_tools_run () =
  Pasta_tools.Tools.register_all ();
  List.iter
    (fun name ->
      let tool = (Option.get (Pasta.Registry.find name)) () in
      let result =
        with_session tool (fun ctx ->
            let m = small_gpt2 ctx in
            Dlfw.Model.inference_iter ctx m)
      in
      let report = Format.asprintf "%t" result.Pasta.Session.report in
      check_bool (name ^ " produces a report") true (String.length report > 0))
    (Pasta.Registry.names ()
    |> List.filter (fun n -> not (Astring_contains.contains n "test_tool")))

let suite =
  [
    ("kernel_freq counts", `Quick, test_kernel_freq_counts);
    ("memory_charact variants agree", `Quick, test_mc_variants_agree);
    ("memory_charact ordering", `Quick, test_mc_ordering);
    ("memory_charact empty", `Quick, test_mc_empty);
    ("memory_charact per-kernel footprints", `Quick, test_mc_footprints_per_kernel);
    ("objmap next base", `Quick, test_objmap_next_base);
    QCheck_alcotest.to_alcotest prop_mc_range_cache;
    ("mem_timeline", `Quick, test_mem_timeline);
    ("hotness matrix", `Quick, test_hotness_matrix);
    ("hotness empty", `Quick, test_hotness_empty);
    ("hotness reports pinned", `Quick, test_hotness_pinned_digests);
    QCheck_alcotest.to_alcotest prop_hotness_matches_reference;
    ("uvm_prefetch plans", `Quick, test_prefetch_plans);
    ("uvm_prefetch probe install/remove", `Quick, test_prefetch_probe_install_remove);
    ("uvm experiment: no oversubscription", `Slow, test_uvm_experiment_no_oversub);
    ("uvm experiment: oversubscription", `Slow, test_uvm_experiment_oversub);
    ("uvm experiment: train mode", `Slow, test_uvm_experiment_train_mode);
    ("uvm experiment: validation", `Quick, test_uvm_experiment_validation);
    ("uvm experiment: replay determinism", `Slow, test_uvm_replay_determinism);
    ("multi_gpu attach", `Quick, test_multi_gpu_attach);
    ("register_all", `Quick, test_register_all);
    ("registered tools run", `Quick, test_registered_tools_run);
  ]
