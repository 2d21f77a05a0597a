(* Vendor profiling substrate tests: Sanitizer, NVBit, ROCProfiler. *)

open Gpusim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_device ?(arch = Arch.a100) () = Device.create arch

(* A hand-off's pieces as (batch, first record, length, stamp), copied
   out of the channel's table, which the channel empties when the call
   returns. *)
let pieces_list (p : Warp.pieces) =
  check_int "every piece is stamped" p.Warp.p_count p.Warp.p_stamped;
  List.init p.Warp.p_count (fun i ->
      (p.Warp.p_batch.(i), p.Warp.p_pos.(i), p.Warp.p_len.(i), p.Warp.p_time.(i)))

(* A piece's records as a batch of their own. *)
let piece_batch (b, pos, len, _) = Warp.sub b ~pos ~len
let piece_stamp (_, _, _, time_us) = time_us

let mk_kernel device ~bytes ~accesses =
  let a = Device.malloc device bytes in
  Kernel.make ~name:"vendor_test_kernel" ~grid:(Dim3.make 8) ~block:(Dim3.make 128)
    ~regions:[ Kernel.region ~base:a.Device_mem.base ~bytes ~accesses () ]
    ()

(* ---- Sanitizer ---- *)

let test_sanitizer_domains () =
  let d = mk_device () in
  let s = Vendor.Sanitizer.attach d in
  let hits = ref 0 in
  Vendor.Sanitizer.set_callback s (fun _ -> incr hits);
  ignore (Device.malloc d 512);
  check_int "nothing before enable" 0 !hits;
  Vendor.Sanitizer.enable_domain s Vendor.Sanitizer.Memory;
  ignore (Device.malloc d 512);
  check_int "alloc delivered" 1 !hits;
  Vendor.Sanitizer.disable_domain s Vendor.Sanitizer.Memory;
  ignore (Device.malloc d 512);
  check_int "disabled again" 1 !hits;
  Vendor.Sanitizer.detach s;
  Vendor.Sanitizer.enable_domain s Vendor.Sanitizer.Memory;
  ignore (Device.malloc d 512);
  check_int "detached" 1 !hits

let test_sanitizer_launch_events () =
  let d = mk_device () in
  let s = Vendor.Sanitizer.attach d in
  Vendor.Sanitizer.enable_domain s Vendor.Sanitizer.Launch;
  let begins = ref 0 and ends = ref 0 in
  Vendor.Sanitizer.set_callback s (function
    | Vendor.Sanitizer.Launch_begin _ -> incr begins
    | Vendor.Sanitizer.Launch_end _ -> incr ends
    | _ -> ());
  let k = mk_kernel d ~bytes:4096 ~accesses:100 in
  ignore (Device.launch d k);
  check_int "begin" 1 !begins;
  check_int "end" 1 !ends;
  check_bool "workload time recorded" true
    ((Vendor.Sanitizer.phases s).Vendor.Phases.workload_us > 0.0)

let test_sanitizer_device_analysis () =
  let d = mk_device () in
  let s = Vendor.Sanitizer.attach d in
  let regions = ref 0 and completes = ref 0 and order_ok = ref true in
  Vendor.Sanitizer.patch_module s
    (Vendor.Sanitizer.Device_analysis
       {
         map_bytes = (fun () -> 1024);
         device_fn =
           (fun _ _ ->
             incr regions;
             if !completes > 0 then order_ok := false);
         on_kernel_complete = (fun _ _ -> incr completes);
       });
  let k = mk_kernel d ~bytes:8192 ~accesses:50000 in
  ignore (Device.launch d k);
  check_int "one region" 1 !regions;
  check_int "one completion" 1 !completes;
  check_bool "regions before completion" true !order_ok;
  let p = Vendor.Sanitizer.phases s in
  check_bool "collect charged" true (p.Vendor.Phases.collect_us > 0.0);
  check_bool "transfer charged (map both ways)" true (p.Vendor.Phases.transfer_us > 0.0);
  Alcotest.(check (float 0.0)) "no host analysis in GPU mode" 0.0 p.Vendor.Phases.analysis_us

let test_sanitizer_host_analysis () =
  let d = mk_device () in
  Device.set_sample_cap d 8;
  let s = Vendor.Sanitizer.attach d in
  let weight = ref 0 in
  Vendor.Sanitizer.patch_module s
    (Vendor.Sanitizer.Host_analysis
       {
         buffer_records = 1000;
         on_pieces =
           (fun _ p ->
             List.iter (fun pc -> weight := !weight + Warp.batch_weight (piece_batch pc)) (pieces_list p));
         per_record_us = 0.1;
       });
  let k = mk_kernel d ~bytes:8192 ~accesses:12345 in
  ignore (Device.launch d k);
  check_int "weights cover all true records" 12345 !weight;
  let p = Vendor.Sanitizer.phases s in
  check_bool "analysis charged" true (p.Vendor.Phases.analysis_us > 0.0);
  check_bool "transfer charged" true (p.Vendor.Phases.transfer_us > 0.0);
  (* Host analysis must cost per true record. *)
  Alcotest.(check (float 1.0)) "per-record accounting" 1234.5 p.Vendor.Phases.analysis_us

let test_sanitizer_buffer_stall () =
  (* A smaller device buffer forces more flushes but identical totals;
     each flush stamps the batches it carried with its own time.  The
     kernel's records span four batches, so flushes can fall between
     them. *)
  let run buffer_records =
    let d = mk_device () in
    Device.set_sample_cap d (4 * Warp.chunk_records);
    let s = Vendor.Sanitizer.attach d in
    let stamps = ref [] in
    Vendor.Sanitizer.patch_module s
      (Vendor.Sanitizer.Host_analysis
         {
           buffer_records;
           on_pieces = (fun _ p -> stamps := List.map piece_stamp (pieces_list p) @ !stamps);
           per_record_us = 0.1;
         });
    let k = mk_kernel d ~bytes:65536 ~accesses:100000 in
    ignore (Device.launch d k);
    ( (Vendor.Sanitizer.phases s).Vendor.Phases.analysis_us,
      List.length (List.sort_uniq compare !stamps) )
  in
  let small_us, small_flushes = run 100 and large_us, large_flushes = run 100000 in
  Alcotest.(check (float 1.0)) "total analysis independent of buffer size" small_us large_us;
  check_bool
    (Printf.sprintf "the smaller buffer stamps more flushes (%d vs %d)" small_flushes
       large_flushes)
    true
    (small_flushes > large_flushes)

(* Each flush is charged where it lands and stamps its batches, whole,
   with the device time after its charges; the host takes the kernel's
   table in one call at its exit, in generation order, and the channel
   empties it then, so a second kernel's table carries nothing of the
   first's.  A kernel without records gets no call. *)
let test_sanitizer_host_table () =
  let d = mk_device () in
  Device.set_sample_cap d 4096;
  let s = Vendor.Sanitizer.attach d in
  let handoffs = ref [] and table = ref None in
  Vendor.Sanitizer.patch_module s
    (Vendor.Sanitizer.Host_analysis
       {
         buffer_records = 30000;
         on_pieces =
           (fun _ p ->
             table := Some p;
             handoffs := (pieces_list p, Device.now_us d) :: !handoffs);
         per_record_us = 0.1;
       });
  let launch accesses =
    handoffs := [];
    ignore (Device.launch d (mk_kernel d ~bytes:65536 ~accesses));
    check_int "the table is empty after the hand-off" 0 (Option.get !table).Warp.p_count;
    match !handoffs with
    | [ h ] -> h
    | hs -> Alcotest.failf "%d hand-offs for one launch" (List.length hs)
  in
  let pieces, handoff_at = launch 100000 in
  check_int "pieces cover all true records" 100000
    (List.fold_left (fun n pc -> n + Warp.batch_weight (piece_batch pc)) 0 pieces);
  check_bool "each piece is a whole batch" true
    (List.for_all (fun (b, pos, len, _) -> pos = 0 && len = Warp.batch_len b) pieces);
  check_bool "pieces in generation order" true
    (List.map (fun (b, _, _, _) -> b.Warp.b_chunk) pieces
    = List.init (List.length pieces) Fun.id);
  let stamps = List.sort_uniq compare (List.map piece_stamp pieces) in
  check_bool "several flushes stamped the pieces" true (List.length stamps > 1);
  check_bool "stamps follow generation order" true
    (List.map piece_stamp pieces = List.sort compare (List.map piece_stamp pieces));
  Alcotest.(check (float 0.0)) "the hand-off follows the last flush" handoff_at
    (List.nth stamps (List.length stamps - 1));
  let second, _ = launch 5000 in
  check_int "the second kernel's table holds its records only" 5000
    (List.fold_left (fun n pc -> n + Warp.batch_weight (piece_batch pc)) 0 second);
  check_bool "and none of the first's batches" true
    (List.for_all (fun (b, _, _, _) -> List.for_all (fun (b', _, _, _) -> b != b') pieces) second);
  handoffs := [];
  ignore (Device.launch d (Kernel.make ~name:"no_records" ~grid:(Dim3.make 1) ~block:(Dim3.make 32) ()));
  check_int "no hand-off for a kernel without records" 0 (List.length !handoffs)

let test_sanitizer_invalid_buffer () =
  let d = mk_device () in
  let s = Vendor.Sanitizer.attach d in
  Alcotest.check_raises "zero buffer"
    (Invalid_argument "Sanitizer.patch_module: buffer_records must be positive")
    (fun () ->
      Vendor.Sanitizer.patch_module s
        (Vendor.Sanitizer.Host_analysis
           { buffer_records = 0; on_pieces = (fun _ _ -> ()); per_record_us = 0.1 }))

(* ---- NVBit ---- *)

let test_nvbit_parse_cache () =
  let d = mk_device () in
  let nv = Vendor.Nvbit.attach d in
  let k = mk_kernel d ~bytes:4096 ~accesses:10 in
  let i1 = Vendor.Nvbit.get_instrs nv k in
  let cost_after_first = (Vendor.Nvbit.phases nv).Vendor.Phases.collect_us in
  let i2 = Vendor.Nvbit.get_instrs nv k in
  check_int "cached same listing" (List.length i1) (List.length i2);
  Alcotest.(check (float 0.0)) "second dump free (cached)" cost_after_first
    (Vendor.Nvbit.phases nv).Vendor.Phases.collect_us;
  check_int "one function parsed" 1 (Vendor.Nvbit.functions_parsed nv)

let test_nvbit_instrument () =
  let d = mk_device () in
  Device.set_sample_cap d 16;
  let nv = Vendor.Nvbit.attach d in
  let weight = ref 0 in
  Vendor.Nvbit.instrument_memory nv
    ~on_pieces:(fun _ p ->
      List.iter (fun pc -> weight := !weight + Warp.batch_weight (piece_batch pc)) (pieces_list p))
    ();
  let k = mk_kernel d ~bytes:8192 ~accesses:777 in
  ignore (Device.launch d k);
  check_int "records delivered" 777 !weight;
  check_int "kernel parsed on first launch" 1 (Vendor.Nvbit.functions_parsed nv);
  ignore (Device.launch d k);
  check_int "second launch reuses parse" 1 (Vendor.Nvbit.functions_parsed nv)

(* 250 weight-1 records through a channel that holds 100 true accesses:
   flushes land right after records 100 and 200 and the kernel exit
   flushes the last 50.  Each flush charges the device clock, then stamps
   its piece; the host takes all three pieces in one hand-off at kernel
   exit, and they cover the batch in order. *)
let test_nvbit_flush_split () =
  let run ?buffer_records () =
    let d = mk_device () in
    Device.set_sample_cap d 256;
    let nv = Vendor.Nvbit.attach d in
    let handoffs = ref [] in
    Vendor.Nvbit.instrument_memory nv ?buffer_records
      ~on_pieces:(fun _ p -> handoffs := (pieces_list p, Device.now_us d) :: !handoffs)
      ();
    let k = mk_kernel d ~bytes:8192 ~accesses:250 in
    let before = Device.now_us d in
    ignore (Device.launch d k);
    match !handoffs with
    | [ (pieces, at) ] -> (before, pieces, at)
    | hs -> Alcotest.failf "%d hand-offs for one launch" (List.length hs)
  in
  let records pieces =
    List.concat_map
      (fun pc ->
        let b = piece_batch pc in
        let addrs = (Warp.cols b).Warp.addrs in
        List.init (Warp.batch_len b) (fun i -> addrs.{i}))
      pieces
  in
  let before, split, handoff_at = run ~buffer_records:100 () in
  let weights = List.map (fun pc -> Warp.batch_weight (piece_batch pc)) split in
  Alcotest.(check (list int))
    "flushes split the batch at records 100 and 200" [ 100; 100; 50 ] weights;
  (* Between two flushes the clock moves by exactly the later flush's
     charges: the transfer of its true accesses plus the per-flush
     channel overhead, then their host analysis. *)
  let charged prev records =
    prev
    +. (Costmodel.transfer_time_us Arch.a100 ~records +. Costmodel.flush_overhead_us)
    +. Costmodel.host_analysis_time_us ~records
         ~per_record_us:Costmodel.nvbit_host_per_record_us
  in
  (match List.map piece_stamp split with
  | [ s0; s1; s2 ] ->
      check_bool "stamps increase strictly from the launch" true
        (before < s0 && s0 < s1 && s1 < s2);
      Alcotest.(check (float 0.0)) "the second flush's charge" (charged s0 100) s1;
      Alcotest.(check (float 0.0)) "the exit flush's charge" (charged s1 50) s2;
      Alcotest.(check (float 0.0)) "the hand-off follows the exit flush" s2 handoff_at
  | stamps -> Alcotest.failf "%d stamped pieces" (List.length stamps));
  let _, whole, _ = run () in
  check_int "a roomy channel hands over one piece" 1 (List.length whole);
  Alcotest.(check (list int))
    "pieces concatenate to the unsplit record stream" (records whole) (records split)

(* The channel's flush points, walked over a batch's filled weight column
   the way the channel found them before it took descriptors: every
   piece, the count left pending after the batch, and each flush's total
   in order. *)
let reference_split b ~count ~cap =
  let w = (Warp.cols b).Warp.weights in
  let count = ref count and start = ref 0 and flushes = ref [] in
  for i = 0 to Warp.batch_len b - 1 do
    count := !count + w.{i};
    if !count >= cap then begin
      flushes := (i + 1 - !start, !count) :: !flushes;
      start := i + 1;
      count := 0
    end
  done;
  (List.rev !flushes, !count)

let ( let* ) = QCheck.Gen.( >>= )

let g_closed_region =
  let open QCheck.Gen in
  let* bytes = oneof [ int_range 1 4096; int_range 4097 (16 lsl 20) ] in
  let* pattern =
    oneof
      [
        return Kernel.Sequential;
        map (fun s -> Kernel.Strided s) (oneof [ int_range 0 7; int_range 8 (bytes + 8) ]);
      ]
  in
  let* accesses = oneof [ int_range 1 3000; int_range 3001 400_000 ] in
  return (bytes, pattern, accesses)

let print_region (bytes, pattern, accesses) =
  Printf.sprintf "(%d B, %s, %d)" bytes
    (match pattern with
    | Kernel.Sequential -> "seq"
    | Kernel.Strided s -> Printf.sprintf "stride %d" s
    | Kernel.Random -> "random")
    accesses

(* On a descriptor chunk (weights [bw] and [bw + 1], any chunk of the
   region, any count pending and any capacity), [Warp.split_weight]'s
   arithmetic finds the same flushes as the walk over its filled weight
   column, and leaves the same count pending. *)
let prop_split_weight =
  QCheck.Test.make ~name:"descriptor flush points equal the weight walk" ~count:1000
    (QCheck.make
       ~print:(fun (r, cap, chunk, count, buffer) ->
         Printf.sprintf "%s cap=%d chunk=%d count=%d buffer=%d" (print_region r) cap chunk
           count buffer)
       QCheck.Gen.(
         let* r = g_closed_region in
         let* cap = oneof [ int_range 1 64; int_range 65 5000 ] in
         let* chunk = int_range 0 7 in
         let* buffer = oneof [ int_range 1 16; int_range 17 5000; int_range 5001 2_000_000 ] in
         let* count = int_range 0 (buffer - 1) in
         return (r, cap, chunk, count, buffer)))
    (fun ((bytes, pattern, accesses), cap, chunk, count, cap_records) ->
      let k =
        Kernel.make ~name:"split" ~grid:(Dim3.make 1) ~block:(Dim3.make 32)
          ~regions:[ Kernel.region ~pattern ~base:0x10000 ~bytes ~accesses () ]
          ()
      in
      let specs = Warp.plan ~max_records_per_region:cap k in
      let d = Warp.describe ~warp_size:32 specs.(chunk mod Array.length specs) in
      let flushes = ref [] in
      let left =
        Warp.split_weight d ~count ~cap:cap_records ~full:(fun upto total ->
            flushes := (upto, total) :: !flushes)
      in
      (* [full] names where each piece ends; the reference, its length. *)
      let pieces =
        List.rev
          (snd
             (List.fold_left
                (fun (start, acc) (upto, total) -> (upto, (upto - start, total) :: acc))
                (0, []) (List.rev !flushes)))
      in
      (pieces, left) = reference_split d ~count ~cap:cap_records)

(* The same through the NVBit channel itself: a kernel of closed-form
   regions, launched at sample rate 1.0, reaches the channel as
   descriptors, and its table's pieces and its Transfer and Analysis
   charges equal those of a walk over each batch's filled weight column
   (the count a chunk leaves pending carries into the next).  Each
   piece's stamp is its flush's: ranked among the table's stamps, it is
   the reference's flush number, and the last is the hand-off's time.
   The table is empty once the hand-off returns.  A thinned kernel
   reaches the channel as dense batches, which keep the column walk. *)
let nvbit_flush_points ?(rate = 1.0) ~cap ~buffer_records regions =
  let d = mk_device () in
  Device.set_sample_cap d cap;
  Device.set_sample_rate d rate;
  let nv = Vendor.Nvbit.attach d in
  let handoffs = ref [] and table = ref None in
  Vendor.Nvbit.instrument_memory nv ~buffer_records
    ~on_pieces:(fun _ p ->
      table := Some p;
      handoffs := (pieces_list p, Device.now_us d) :: !handoffs)
    ();
  let regions =
    List.map
      (fun (bytes, pattern, accesses) ->
        let a = Device.malloc d bytes in
        Kernel.region ~pattern ~base:a.Device_mem.base ~bytes ~accesses ())
      regions
  in
  let k =
    Kernel.make ~name:"flush_points" ~grid:(Dim3.make 1) ~block:(Dim3.make 32) ~regions ()
  in
  ignore (Device.launch d k);
  let got, handoff_at =
    match !handoffs with
    | [ h ] -> h
    | hs -> Alcotest.failf "%d hand-offs for one launch" (List.length hs)
  in
  let ph = Vendor.Nvbit.phases nv in
  (* Every record lies in a piece, so the pieces name every batch. *)
  let batches =
    List.fold_left
      (fun acc (b, _, _, _) -> match acc with b' :: _ when b' == b -> acc | _ -> b :: acc)
      [] got
    |> List.rev
  in
  let transfer = ref 0.0 and analysis = ref 0.0 in
  let charge records =
    transfer :=
      !transfer
      +. (Costmodel.transfer_time_us Arch.a100 ~records +. Costmodel.flush_overhead_us);
    analysis :=
      !analysis
      +. Costmodel.host_analysis_time_us ~records
           ~per_record_us:Costmodel.nvbit_host_per_record_us
  in
  (* Each reference piece carries the number of the flush that takes it. *)
  let flushed = ref 0 in
  let pending, pieces =
    List.fold_left
      (fun (pending, pieces) b ->
        let flushes, left = reference_split b ~count:pending ~cap:buffer_records in
        let start = ref 0 and pieces = ref pieces in
        List.iter
          (fun (len, total) ->
            pieces := (b, !start, len, !flushed) :: !pieces;
            start := !start + len;
            charge total;
            incr flushed)
          flushes;
        if !start < Warp.batch_len b then
          pieces := (b, !start, Warp.batch_len b - !start, !flushed) :: !pieces;
        (left, !pieces))
      (0, []) batches
  in
  if pending > 0 then charge pending;
  let pieces = List.rev pieces in
  let stamps = List.sort_uniq Float.compare (List.map piece_stamp got) in
  let rank time_us =
    let rec find i = function
      | s :: rest -> if Float.equal s time_us then i else find (i + 1) rest
      | [] -> -1
    in
    find 0 stamps
  in
  let same_pieces =
    List.compare_lengths got pieces = 0
    && List.for_all2
         (fun (b, pos, len, time_us) (b', pos', len', flush) ->
           b == b' && pos = pos' && len = len' && rank time_us = flush)
         got pieces
    && Float.equal (List.nth stamps (List.length stamps - 1)) handoff_at
    && (Option.get !table).Warp.p_count = 0
  in
  let shapes =
    List.map
      (fun b -> match b.Warp.b_shape with Warp.Dense _ -> `Dense | Warp.Descriptor _ -> `Desc)
      batches
  in
  ( same_pieces
    && Float.equal ph.Vendor.Phases.transfer_us !transfer
    && Float.equal ph.Vendor.Phases.analysis_us !analysis,
    shapes,
    List.fold_left (fun acc pc -> acc + Warp.batch_weight (piece_batch pc)) 0 got )

let prop_nvbit_flush_points =
  QCheck.Test.make ~name:"nvbit flushes land on the same record" ~count:200
    (QCheck.make
       ~print:(fun (regions, cap, buffer) ->
         Printf.sprintf "[%s] cap=%d buffer=%d"
           (String.concat "; " (List.map print_region regions))
           cap buffer)
       QCheck.Gen.(
         triple
           (list_size (int_range 1 3) g_closed_region)
           (oneof [ int_range 1 64; int_range 65 3000 ])
           (oneof [ int_range 1 64; int_range 65 5000; int_range 5001 500_000 ])))
    (fun (regions, cap, buffer_records) ->
      let same, shapes, weight = nvbit_flush_points ~cap ~buffer_records regions in
      same
      && List.for_all (( = ) `Desc) shapes
      && weight = List.fold_left (fun acc (_, _, a) -> acc + a) 0 regions)

let test_nvbit_flush_dense () =
  let regions = [ (65536, Kernel.Sequential, 50_000); (8192, Kernel.Strided 12, 7_000) ] in
  let same, shapes, _ = nvbit_flush_points ~rate:0.5 ~cap:2048 ~buffer_records:700 regions in
  check_bool "thinned batches reach the channel dense" true
    (shapes <> [] && List.for_all (( = ) `Dense) shapes);
  check_bool "thinned batches flush where the weight walk does" true same

let test_nvbit_costlier_than_sanitizer () =
  (* Same workload, both CPU-analysis models: NVBit must cost more
     (heavier trampoline, SASS parse, per-flush channel overhead). *)
  let run attach_and_patch =
    let d = mk_device () in
    Device.set_sample_cap d 16;
    attach_and_patch d;
    let k = mk_kernel d ~bytes:65536 ~accesses:1_000_000 in
    ignore (Device.launch d k);
    Device.now_us d
  in
  let t_cs =
    run (fun d ->
        let s = Vendor.Sanitizer.attach d in
        Vendor.Sanitizer.patch_module s
          (Vendor.Sanitizer.Host_analysis
             {
               buffer_records = Vendor.Sanitizer.default_buffer_records;
               on_pieces = (fun _ _ -> ());
               per_record_us = Costmodel.sanitizer_host_per_record_us;
             }))
  in
  let t_nvbit =
    run (fun d ->
        let nv = Vendor.Nvbit.attach d in
        Vendor.Nvbit.instrument_memory nv ~on_pieces:(fun _ _ -> ()) ())
  in
  check_bool "nvbit slower than sanitizer" true (t_nvbit > t_cs)

let test_nvbit_opcode_counts () =
  let d = mk_device () in
  let nv = Vendor.Nvbit.attach d in
  let seen = ref [] in
  Vendor.Nvbit.instrument_opcodes nv
    ~opcodes:[ Instr.Ld_global; Instr.Exit ]
    ~on_counts:(fun _ counts -> seen := counts)
    ();
  let k = mk_kernel d ~bytes:4096 ~accesses:100 in
  ignore (Device.launch d k);
  let threads = Kernel.threads k in
  let get o = Option.value ~default:(-1) (List.assoc_opt o !seen) in
  (* The test kernel has one read region -> one LDG, and every listing ends
     in one EXIT; dynamic count = static x threads. *)
  check_int "ldg dynamic count" (1 * threads) (get Instr.Ld_global);
  check_int "exit dynamic count" (1 * threads) (get Instr.Exit);
  check_bool "collect charged" true
    ((Vendor.Nvbit.phases nv).Vendor.Phases.collect_us > 0.0)

let test_nvbit_events () =
  let d = mk_device () in
  let nv = Vendor.Nvbit.attach d in
  let events = ref [] in
  Vendor.Nvbit.at_cuda_event nv (fun ev ->
      let tag =
        match ev with
        | Vendor.Nvbit.Ev_launch_begin _ -> "lb"
        | Ev_launch_end _ -> "le"
        | Ev_memcpy _ -> "cp"
        | Ev_malloc _ -> "ma"
        | Ev_free _ -> "fr"
        | Ev_sync -> "sy"
      in
      events := tag :: !events);
  let a = Device.malloc d 4096 in
  Device.memcpy d ~dst:a.Device_mem.base ~src:0 ~bytes:4096 ~kind:Device.Host_to_device ();
  Device.free d a.Device_mem.base;
  Device.synchronize d;
  Alcotest.(check (list string)) "event kinds" [ "ma"; "cp"; "fr"; "sy" ] (List.rev !events)

(* ---- ROCProfiler ---- *)

let test_rocprofiler_vendor_check () =
  let d = mk_device ~arch:Arch.a100 () in
  Alcotest.check_raises "nvidia rejected"
    (Invalid_argument "Rocprofiler.attach: not an AMD device") (fun () ->
      ignore (Vendor.Rocprofiler.attach d))

let test_rocprofiler_negative_free () =
  let d = mk_device ~arch:Arch.mi300x () in
  let r = Vendor.Rocprofiler.attach d in
  let deltas = ref [] in
  Vendor.Rocprofiler.configure_callback r (function
    | Vendor.Rocprofiler.Memory_allocate { size_delta; _ } ->
        deltas := size_delta :: !deltas
    | _ -> ());
  let a = Device.malloc d 1000 in
  Device.free d a.Device_mem.base;
  (match List.rev !deltas with
  | [ alloc; free ] ->
      check_int "allocation positive" 1024 alloc;
      check_int "release negative" (-1024) free
  | _ -> Alcotest.fail "expected two allocate records")

let test_rocprofiler_dispatch () =
  let d = mk_device ~arch:Arch.mi300x () in
  let r = Vendor.Rocprofiler.attach d in
  let phases_seen = ref [] in
  Vendor.Rocprofiler.configure_callback r (function
    | Vendor.Rocprofiler.Kernel_dispatch { phase; stats; agent; _ } ->
        phases_seen := (phase, stats <> None, agent) :: !phases_seen
    | _ -> ());
  let k = mk_kernel d ~bytes:4096 ~accesses:10 in
  ignore (Device.launch d k);
  (match List.rev !phases_seen with
  | [ (`Begin, false, a1); (`End, true, a2) ] ->
      check_int "agent is device id" (Device.id d) a1;
      check_int "same agent" a1 a2
  | _ -> Alcotest.fail "expected begin/end dispatch records")

let test_rocprofiler_patch () =
  let d = mk_device ~arch:Arch.mi300x () in
  let r = Vendor.Rocprofiler.attach d in
  let regions = ref 0 in
  Vendor.Rocprofiler.patch_kernels r
    ~map_bytes:(fun () -> 512)
    ~device_fn:(fun _ _ -> incr regions)
    ~on_kernel_complete:(fun _ _ -> ());
  let k = mk_kernel d ~bytes:4096 ~accesses:10 in
  ignore (Device.launch d k);
  check_int "region delivered" 1 !regions

(* ---- Phases ---- *)

let test_phases_arith () =
  let p = Vendor.Phases.create () in
  p.Vendor.Phases.workload_us <- 10.0;
  p.Vendor.Phases.collect_us <- 20.0;
  p.Vendor.Phases.transfer_us <- 30.0;
  p.Vendor.Phases.analysis_us <- 40.0;
  Alcotest.(check (float 1e-9)) "total" 100.0 (Vendor.Phases.total_us p);
  Alcotest.(check (float 1e-9)) "overhead" 90.0 (Vendor.Phases.overhead_us p);
  let w, c, t, a = Vendor.Phases.fractions p in
  Alcotest.(check (float 1e-9)) "w" 0.1 w;
  Alcotest.(check (float 1e-9)) "c" 0.2 c;
  Alcotest.(check (float 1e-9)) "t" 0.3 t;
  Alcotest.(check (float 1e-9)) "a" 0.4 a;
  let q = Vendor.Phases.add p p in
  Alcotest.(check (float 1e-9)) "add" 200.0 (Vendor.Phases.total_us q);
  Vendor.Phases.reset p;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Vendor.Phases.total_us p)

let suite =
  [
    ("sanitizer domains", `Quick, test_sanitizer_domains);
    ("sanitizer launch events", `Quick, test_sanitizer_launch_events);
    ("sanitizer device analysis", `Quick, test_sanitizer_device_analysis);
    ("sanitizer host analysis", `Quick, test_sanitizer_host_analysis);
    ("sanitizer buffer-size invariance", `Quick, test_sanitizer_buffer_stall);
    ("sanitizer invalid buffer", `Quick, test_sanitizer_invalid_buffer);
    ("nvbit parse cache", `Quick, test_nvbit_parse_cache);
    ("nvbit instrument", `Quick, test_nvbit_instrument);
    ("sanitizer host hands off one table per kernel", `Quick, test_sanitizer_host_table);
    ("nvbit flush splits batches", `Quick, test_nvbit_flush_split);
    QCheck_alcotest.to_alcotest prop_split_weight;
    QCheck_alcotest.to_alcotest prop_nvbit_flush_points;
    ("nvbit flushes in thinned batches", `Quick, test_nvbit_flush_dense);
    ("nvbit costlier than sanitizer", `Quick, test_nvbit_costlier_than_sanitizer);
    ("nvbit opcode counts", `Quick, test_nvbit_opcode_counts);
    ("nvbit events", `Quick, test_nvbit_events);
    ("rocprofiler vendor check", `Quick, test_rocprofiler_vendor_check);
    ("rocprofiler negative free", `Quick, test_rocprofiler_negative_free);
    ("rocprofiler dispatch", `Quick, test_rocprofiler_dispatch);
    ("rocprofiler patch", `Quick, test_rocprofiler_patch);
    ("phases arithmetic", `Quick, test_phases_arith);
  ]
