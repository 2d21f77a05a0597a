(* Second property-test batch: cross-checking modules against naive
   reference implementations on random inputs. *)

let qtest = QCheck_alcotest.to_alcotest

let prop_histogram_merge_commutative =
  QCheck.Test.make ~name:"histogram merge is commutative" ~count:200
    QCheck.(pair (small_list (pair (string_of_size (Gen.int_range 1 4)) (int_range 1 10)))
              (small_list (pair (string_of_size (Gen.int_range 1 4)) (int_range 1 10))))
    (fun (xs, ys) ->
      let mk items =
        let h = Pasta_util.Histogram.create () in
        List.iter (fun (k, n) -> Pasta_util.Histogram.add h ~count:n k) items;
        h
      in
      let ab = Pasta_util.Histogram.merge (mk xs) (mk ys) in
      let ba = Pasta_util.Histogram.merge (mk ys) (mk xs) in
      Pasta_util.Histogram.to_sorted ab = Pasta_util.Histogram.to_sorted ba)

let prop_timeline_bucket_values_from_samples =
  QCheck.Test.make ~name:"bucketized values are recorded values" ~count:200
    QCheck.(small_list (float_range 0.0 100.0))
    (fun values ->
      QCheck.assume (values <> []);
      let tl = Pasta_util.Timeline.create () in
      List.iteri (fun i v -> Pasta_util.Timeline.record tl ~time:(float_of_int i) v) values;
      let buckets = Pasta_util.Timeline.bucketize tl ~buckets:7 in
      Array.for_all (fun b -> List.exists (fun v -> v = b) values) buckets)

let prop_canonical_api_idempotent =
  QCheck.Test.make ~name:"canonical_api is idempotent" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 20))
    (fun s ->
      let once = Pasta.Normalize.canonical_api s in
      Pasta.Normalize.canonical_api once = once
      || (* stripping can expose another prefix once (e.g. "cudacuMalloc");
            a second pass must then be the fixed point *)
      Pasta.Normalize.canonical_api (Pasta.Normalize.canonical_api once)
      = Pasta.Normalize.canonical_api once)

let prop_devmem_find_matches_scan =
  QCheck.Test.make ~name:"find_containing agrees with a linear scan" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (int_range 1 2048)) (int_range 0 65535))
    (fun (sizes, probe_off) ->
      let m = Gpusim.Device_mem.create ~base:0 ~capacity:(1 lsl 16) () in
      let live = ref [] in
      List.iter
        (fun sz ->
          match Gpusim.Device_mem.alloc m sz with
          | a -> live := a :: !live
          | exception Gpusim.Device_mem.Out_of_memory _ -> ())
        sizes;
      let addr = probe_off in
      let expected =
        List.find_opt
          (fun (a : Gpusim.Device_mem.alloc) ->
            addr >= a.Gpusim.Device_mem.base
            && addr < a.Gpusim.Device_mem.base + a.Gpusim.Device_mem.bytes)
          !live
      in
      let got = Gpusim.Device_mem.find_containing m addr in
      match (expected, got) with
      | None, None -> true
      | Some a, Some b -> a.Gpusim.Device_mem.base = b.Gpusim.Device_mem.base
      | _ -> false)

let prop_uvm_touch_residency =
  QCheck.Test.make ~name:"touched pages are resident when capacity suffices" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_range 0 31) (int_range 1 8)))
    (fun touches ->
      let page = Gpusim.Arch.a100.Gpusim.Arch.uvm_page_bytes in
      let clock = Gpusim.Clock.create () in
      let u = Gpusim.Uvm.create Gpusim.Arch.a100 clock ~capacity:(64 * page) in
      Gpusim.Uvm.register_range u ~base:0 ~bytes:(32 * page);
      let expected = Hashtbl.create 32 in
      let f = ref 0 in
      List.iter
        (fun (start, len) ->
          let lo = min start 31 in
          let hi = min 31 (lo + len - 1) in
          for p = lo to hi do
            Hashtbl.replace expected p ()
          done;
          Gpusim.Uvm.touch u ~base:(lo * page)
            ~bytes:((hi - lo + 1) * page)
            ~faulted_pages:f)
        touches;
      Gpusim.Uvm.check_invariants u;
      Gpusim.Uvm.resident_pages u = Hashtbl.length expected
      && !f = Hashtbl.length expected)

let prop_objmap_tensor_shadows_alloc =
  QCheck.Test.make ~name:"objmap always prefers live tensors over allocations" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 1 500))
    (fun (t_off, t_len) ->
      let m = Pasta.Objmap.create () in
      Pasta.Objmap.on_alloc m ~addr:0 ~bytes:2000 ~managed:false;
      Pasta.Objmap.on_tensor_alloc m ~ptr:t_off ~bytes:t_len ~tag:"t";
      let inside = t_off + (t_len / 2) in
      let is_tensor =
        match Pasta.Objmap.resolve m inside with
        | Pasta.Objmap.Tensor _ -> true
        | _ -> false
      in
      let outside_ok =
        t_off = 0
        ||
        match Pasta.Objmap.resolve m (t_off - 1) with
        | Pasta.Objmap.Device_alloc _ -> true
        | _ -> false
      in
      is_tensor && outside_ok)

let prop_stats_scale_invariance =
  QCheck.Test.make ~name:"summarize commutes with positive scaling" ~count:200
    QCheck.(pair (array_of_size (Gen.int_range 1 30) (float_range 0.1 100.0)) (float_range 0.5 4.0))
    (fun (xs, k) ->
      let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a) in
      let s = Pasta_util.Stats.summarize xs in
      let scaled = Pasta_util.Stats.summarize (Array.map (fun x -> x *. k) xs) in
      close (s.Pasta_util.Stats.mean *. k) scaled.Pasta_util.Stats.mean
      && close (s.Pasta_util.Stats.median *. k) scaled.Pasta_util.Stats.median
      && close (s.Pasta_util.Stats.p90 *. k) scaled.Pasta_util.Stats.p90)

let prop_sass_static_counts =
  QCheck.Test.make ~name:"memory PCs count matches region structure" ~count:100
    QCheck.(int_range 0 6)
    (fun nregions ->
      let regions =
        List.init nregions (fun i ->
            Gpusim.Kernel.region ~base:(4096 * (i + 1)) ~bytes:512 ~accesses:32 ())
      in
      let k =
        Gpusim.Kernel.make ~name:"p" ~grid:(Gpusim.Dim3.make 1)
          ~block:(Gpusim.Dim3.make 32) ~regions ()
      in
      (* No shared-memory block: exactly one LDG/STG per region. *)
      List.length (Gpusim.Sass.memory_pcs (Gpusim.Sass.listing k)) = nregions)

(* ---- The processor's piece ring under overflow policies ---- *)

(* A stream of hand-offs and kernel-end drains.  A hand-off holds
   batches, each cut into pieces of the given lengths, as a channel that
   flushes inside a batch cuts it; every record's address is unique, so
   the delivered order names each record. *)
type ring_op = Handoff of int list list | Drain

let g_ring_stream =
  let open QCheck.Gen in
  let handoff =
    map (fun bs -> Handoff bs) (list_size (int_range 1 4) (list_size (int_range 1 3) (int_range 1 5)))
  in
  list_size (int_range 0 12) (frequency [ (1, return Drain); (3, handoff) ])

let policies = Pasta.Config.[ Drop_oldest; Drop_newest; Block ]

let print_ring (cap, policy, ops) =
  Printf.sprintf "cap=%d %s [%s]" cap (Pasta.Config.overflow_to_string policy)
    (String.concat "; "
       (List.map
          (function
            | Drain -> "drain"
            | Handoff bs ->
                String.concat " | "
                  (List.map (fun ls -> String.concat "," (List.map string_of_int ls)) bs))
          ops))

let g_ring_case =
  QCheck.make ~print:print_ring
    QCheck.Gen.(triple (int_range 1 16) (oneofl policies) g_ring_stream)

(* Each hand-off's pieces as (first address, length), numbering records
   from 0 across the stream. *)
let ring_pieces ops =
  let next = ref 0 in
  List.map
    (function
      | Drain -> None
      | Handoff bs ->
          Some
            (List.map
               (fun lens ->
                 List.map
                   (fun len ->
                     let a = !next in
                     next := a + len;
                     (a, len))
                   lens)
               bs))
    ops

(* The naive model: a list of pieces, the overflow policy applied to it
   piece by piece.  It returns the delivered pieces in order, and the
   records dropped, the stalls and the buffered peak, in records. *)
let ring_model ~cap ~policy ops =
  let queue = ref [] and out = ref [] and dropped = ref 0 and stalls = ref 0 and peak = ref 0 in
  let buffered () = List.fold_left (fun n (_, l) -> n + l) 0 !queue in
  let drain () =
    out := List.rev_append !queue !out;
    queue := []
  in
  let push ((_, len) as piece) =
    (if List.length !queue < cap then queue := !queue @ [ piece ]
     else
       match policy with
       | Pasta.Config.Drop_newest -> dropped := !dropped + len
       | Pasta.Config.Drop_oldest -> (
           match !queue with
           | (_, old) :: rest ->
               dropped := !dropped + old;
               queue := rest @ [ piece ]
           | [] -> assert false)
       | Pasta.Config.Block ->
           incr stalls;
           drain ();
           queue := [ piece ]);
    peak := max !peak (buffered ())
  in
  List.iter
    (function None -> drain () | Some bs -> List.iter (List.iter push) bs)
    (ring_pieces ops);
  drain ();
  (List.rev !out, !dropped, !stalls, !peak)

let ring_info =
  {
    Pasta.Event.device_id = 0;
    grid_id = 0;
    stream = 0;
    name = "ring";
    grid = Gpusim.Dim3.make 1;
    block = Gpusim.Dim3.make 32;
    shared_bytes = 0;
    arg_ptrs = [];
    py_stack = [];
    native_stack = [];
  }

(* The same stream through a processor: each hand-off one table on its
   own kernel, each batch one dense batch of its pieces' records.  The
   tool logs every record's address, through [on_access] or, with
   [~columns], through one [on_access_columns] call per piece. *)
let ring_run ~columns ~cap ~policy ops =
  let p =
    Pasta.Processor.create ~range:(Pasta.Range.create ()) ~buffer_capacity:cap
      ~overflow_policy:policy ~device:0 ()
  in
  let seen = ref [] and calls = ref 0 in
  let base = Pasta.Tool.default "ring" in
  Pasta.Processor.set_tool p
    (if columns then
       {
         base with
         Pasta.Tool.on_access_columns =
           Some
             (fun _ b ->
               incr calls;
               let addrs = (Gpusim.Warp.cols b).Gpusim.Warp.addrs in
               for i = 0 to Gpusim.Warp.batch_len b - 1 do
                 seen := addrs.{i} :: !seen
               done);
       }
     else { base with Pasta.Tool.on_access = (fun _ a -> seen := a.Pasta.Event.addr :: !seen) });
  let table = Gpusim.Warp.pieces () in
  List.iteri
    (fun grid_id -> function
      | None -> Pasta.Processor.flush_records p
      | Some bs ->
          List.iter
            (fun pieces ->
              let first = fst (List.hd pieces) in
              let n = List.fold_left (fun n (_, l) -> n + l) 0 pieces in
              let b =
                Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0
                  ~addrs:(Array.init n (fun i -> first + i))
                  ~sizes:(Array.make n 4) ~warps:(Array.make n 0) ~weights:(Array.make n 1)
                  ~writes:(Bytes.make n '\000')
              in
              List.iter
                (fun (a, len) -> Gpusim.Warp.add_piece table b ~pos:(a - first) ~len)
                pieces)
            bs;
          Gpusim.Warp.stamp_pieces table 0.0;
          Pasta.Processor.submit_pieces p { ring_info with Pasta.Event.grid_id } table;
          Gpusim.Warp.clear_pieces table)
    (ring_pieces ops);
  Pasta.Processor.flush_records p;
  let peak =
    Pasta_util.Metric.find_gauge (Pasta.Processor.metrics p)
      ~labels:(Pasta.Processor.metric_labels p) "pasta_records_buffered_peak"
  in
  ( List.rev !seen,
    !calls,
    Proc_counter.get p "pasta_records_dropped",
    Proc_counter.get p "pasta_buffer_stalls",
    int_of_float (Option.get peak) )

let records_of pieces = List.concat_map (fun (a, len) -> List.init len (fun i -> a + i)) pieces

(* Per-record delivery: the records in the model's order (consecutive
   pieces of a batch read as one run), and its drops, stalls and peak. *)
let prop_ring_model =
  QCheck.Test.make ~name:"piece ring: records, drops, stalls and peak equal the list model"
    ~count:300 g_ring_case (fun (cap, policy, ops) ->
      let out, dropped, stalls, peak = ring_model ~cap ~policy ops in
      let seen, _, dropped', stalls', peak' = ring_run ~columns:false ~cap ~policy ops in
      seen = records_of out && dropped = dropped' && stalls = stalls' && peak = peak')

(* Columns delivery: one call per delivered piece, in the model's order. *)
let prop_ring_columns =
  QCheck.Test.make ~name:"piece ring: a columns tool gets one call per piece" ~count:300
    g_ring_case (fun (cap, policy, ops) ->
      let out, dropped, stalls, peak = ring_model ~cap ~policy ops in
      let seen, calls, dropped', stalls', peak' = ring_run ~columns:true ~cap ~policy ops in
      seen = records_of out
      && calls = List.length out
      && dropped = dropped' && stalls = stalls' && peak = peak')

(* Without a drain, drop-oldest keeps exactly the newest K pieces and
   drop-newest the oldest K. *)
let prop_ring_lossy_keeps_k =
  QCheck.Test.make ~name:"drop-oldest keeps the newest K pieces, drop-newest the oldest K"
    ~count:300 g_ring_case (fun (cap, _, ops) ->
      let ops = List.filter (fun op -> op <> Drain) ops in
      let pieces = List.concat (List.filter_map (Option.map List.concat) (ring_pieces ops)) in
      let n = List.length pieces in
      let run policy =
        let seen, _, _, _, _ = ring_run ~columns:false ~cap ~policy ops in
        seen
      in
      run Pasta.Config.Drop_oldest = records_of (List.filteri (fun i _ -> i >= n - min cap n) pieces)
      && run Pasta.Config.Drop_newest = records_of (List.filteri (fun i _ -> i < min cap n) pieces))

let prop_ring_block_never_loses =
  QCheck.Test.make ~name:"block policy never loses a record" ~count:300 g_ring_case
    (fun (cap, _, ops) ->
      let seen, _, dropped, _, _ = ring_run ~columns:false ~cap ~policy:Pasta.Config.Block ops in
      let all = List.concat (List.filter_map (Option.map List.concat) (ring_pieces ops)) in
      seen = records_of all && dropped = 0)

let suite =
  [
    qtest prop_histogram_merge_commutative;
    qtest prop_timeline_bucket_values_from_samples;
    qtest prop_canonical_api_idempotent;
    qtest prop_devmem_find_matches_scan;
    qtest prop_uvm_touch_residency;
    qtest prop_objmap_tensor_shadows_alloc;
    qtest prop_stats_scale_invariance;
    qtest prop_sass_static_counts;
    qtest prop_ring_model;
    qtest prop_ring_columns;
    qtest prop_ring_lossy_keeps_k;
    qtest prop_ring_block_never_loses;
  ]
