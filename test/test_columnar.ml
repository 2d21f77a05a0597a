(* The columnar hot path: the per-domain accumulators must agree with the
   reference aggregator ([Ref_devagg]) for any batch-to-accumulator
   assignment; tool reports must be byte-identical at every domain count,
   with faults injected and sampling engaged; a columns tool must read
   what the per-record stream carries; and a trace captured from the
   columnar path must replay to the exact live bytes. *)

let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let ( let* ) x f = QCheck.Gen.( >>= ) x f

module W = Gpusim.Warp

(* ------------------------------------------------------------------ *)
(* Accumulators vs the reference aggregator                            *)
(* ------------------------------------------------------------------ *)

(* [n] dense records around [base]: a walk of random start and step
   through the objects laid out there, with some addresses drawn anywhere
   in the span, so a batch crosses allocations, nested tensors and the
   gaps between them (unknown addresses), and its resolve memo decides
   what an address inside a nested tensor resolves to. *)
let g_dense ~base ~extent =
  let open QCheck.Gen in
  let span = 4 * (extent + 64) in
  let* n = int_range 1 256 in
  let* start = int_range 0 span in
  let* step = oneof [ int_range 0 8; int_range 1 ((extent / 16) + 1); int_range 1 (extent + 1) ] in
  let* jumps = list_repeat n (opt ~ratio:0.1 (int_range 0 span)) in
  let* weights = list_repeat n (int_range 1 5) in
  let* writes = string_size ~gen:(oneofl [ '\000'; '\001' ]) (return n) in
  let* region = int_range 0 3 in
  let origin = base - extent - 64 in
  let addrs =
    Array.of_list
      (List.mapi
         (fun i jump ->
           origin + match jump with Some off -> off | None -> (start + (i * step)) mod span)
         jumps)
  in
  return
    (W.batch_of_arrays ~region ~chunk:0 ~pc:64 ~addrs ~sizes:(Array.make n 4)
       ~warps:(Array.init n (fun i -> i / 32))
       ~weights:(Array.of_list weights) ~writes:(Bytes.of_string writes))

type accum_case = {
  objs : int * (int * int * int option * (int * int) option) list;
  base : int;
  batches : W.batch list;  (* in hand-off order *)
  accums : int;
  assign : int list;  (* accumulator of each batch *)
  primed : bool;  (* accumulators reduce every batch once, then reset *)
  rate : float;
}

(* The descriptors of a random sequential or strided region, and dense
   batches over the same objects, interleaved in a random order. *)
let g_accum_case =
  let open QCheck.Gen in
  let* ((bytes, _, _, _, _, _) as region), objs = Test_pipeline.g_case in
  let base, descs = Test_pipeline.case_descriptors region in
  let descs = List.filteri (fun i _ -> i < 6) descs in
  let* dense = list_size (int_range 0 4) (g_dense ~base ~extent:bytes) in
  let* batches = shuffle_l (descs @ dense) in
  let* accums = int_range 1 4 in
  let* assign = list_repeat (List.length batches) (int_range 0 (accums - 1)) in
  let* primed = bool in
  let* rate = oneofl [ 1.0; 0.75; 0.25 ] in
  return { objs; base; batches; accums; assign; primed; rate }

let print_accum_case c =
  Printf.sprintf "%d batches (%d descriptors) over %d accumulators%s, rate %g, %d objects"
    (List.length c.batches)
    (List.length
       (List.filter (fun b -> match b.W.b_shape with W.Descriptor _ -> true | W.Dense _ -> false)
          c.batches))
    c.accums
    (if c.primed then " (reused)" else "")
    c.rate
    (List.length (snd c.objs))

(* Below rate 1.0 every batch is thinned first, as live sampling does,
   from a stream of its own. *)
let thinned c =
  List.mapi
    (fun i b ->
      W.thin ~rng:(Pasta_util.Det_rng.of_key 0x5eedL [| 41; i |]) ~rate:c.rate b)
    c.batches

(* Merging the accumulators sums their tallies, so it must equal the
   reference's shards merged in the order the accumulators hold them:
   the first accumulator's batches in hand-off order, then the second's,
   and so on.  (Order decides only which object a key shared by a tensor
   and the allocation it starts names.) *)
let prop_accums_equal_reference =
  QCheck.Test.make ~name:"accumulators = reference aggregator, any assignment" ~count:300
    (QCheck.make g_accum_case ~print:print_accum_case)
    (fun c ->
      let view = Test_pipeline.view_of ~base:c.base c.objs in
      let batches = thinned c in
      let accums = Array.init c.accums (fun _ -> Pasta.Devagg.accum_create ()) in
      if c.primed then begin
        List.iter2 (fun a b -> Pasta.Devagg.accum_add accums.(a) view b) c.assign batches;
        Array.iter Pasta.Devagg.accum_reset accums
      end;
      List.iter2 (fun a b -> Pasta.Devagg.accum_add accums.(a) view b) c.assign batches;
      let merged = Pasta.Devagg.merge_accums ~est_rate:c.rate accums in
      let shards =
        List.concat
          (List.init c.accums (fun a ->
               List.filter_map
                 (fun (a', b) -> if a' = a then Some (Ref_devagg.aggregate view b) else None)
                 (List.combine c.assign batches)))
      in
      merged = Ref_devagg.merge ~est_rate:c.rate (Array.of_list shards))

(* ------------------------------------------------------------------ *)
(* Live runs                                                           *)
(* ------------------------------------------------------------------ *)

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One live BERT run.  The domain override is cleared even if the run
   throws, so a failing case cannot poison the suite that runs after
   it. *)
let live_run ?rate ?capture ?fault_seed ~domains ~tool () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  Fun.protect ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_DOMAINS")
  @@ fun () ->
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let faults =
    Option.map (fun seed -> Gpusim.Faults.create ~seed ()) fault_seed
  in
  let (), result =
    Pasta.Session.run ~sample_cap:256 ?sample_rate:rate ?faults ?capture
      ~tool device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  (Format.asprintf "%t" result.Pasta.Session.report, result)

let hotness_run ?rate ?capture ?fault_seed ~domains () =
  let hot = Pasta_tools.Hotness.create () in
  live_run ?rate ?capture ?fault_seed ~domains
    ~tool:(Pasta_tools.Hotness.tool_fine hot)
    ()

(* The CS-CPU working-set tool, reading columns or, with them taken
   away, the per-record stream. *)
let sanitizer_run ~columns ~domains () =
  let mc = Pasta_tools.Memory_charact.create ~variant:Cpu_sanitizer () in
  let tool = Pasta_tools.Memory_charact.tool mc in
  let tool = if columns then tool else { tool with Pasta.Tool.on_access_columns = None } in
  live_run ~domains ~tool ()

(* For a random sub-1.0 sampling rate and fault seed, the parallel
   reduction produces digest-identical reports at 1, 2, 4 and 8
   domains. *)
let prop_domains_identical =
  let gen =
    let* rate = QCheck.Gen.oneofl [ 0.75; 0.5; 0.25 ] in
    let* seed = QCheck.Gen.int_range 1 1_000_000 in
    QCheck.Gen.return (rate, seed)
  in
  QCheck.Test.make
    ~name:"digests identical at 1/2/4/8 domains (faults + sampling)"
    ~count:3
    (QCheck.make gen ~print:(fun (rate, seed) ->
         Printf.sprintf "rate=%g fault_seed=%d" rate seed))
    (fun (rate, seed) ->
      let fault_seed = Int64.of_int seed in
      let digests =
        List.map
          (fun domains ->
            let report, _ = hotness_run ~rate ~fault_seed ~domains () in
            Digest.string report)
          [ 1; 2; 4; 8 ]
      in
      match digests with
      | [] -> false
      | d0 :: rest -> List.for_all (String.equal d0) rest)

(* The tool-side columns consumer: CS-CPU memory characterization reads
   the address column in place, and must report exactly what the same
   tool reads off the per-record stream. *)
let test_sanitizer_columns_equal_records () =
  let base, _ = sanitizer_run ~columns:true ~domains:4 () in
  List.iter
    (fun (columns, domains) ->
      let r, _ = sanitizer_run ~columns ~domains () in
      check_bool
        (Printf.sprintf "sanitizer report identical (columns=%b, %d domains)"
           columns domains)
        true (String.equal base r))
    [ (false, 4); (true, 1); (false, 1); (true, 8) ]

(* ------------------------------------------------------------------ *)
(* Capture -> replay round-trip on the columnar layout                 *)
(* ------------------------------------------------------------------ *)

let temp_trace () = Filename.temp_file "pasta_columnar" ".ptrace"

let test_columnar_capture_replay () =
  let path = temp_trace () in
  let live, result =
    hotness_run ~rate:0.5 ~fault_seed:24285L ~domains:4 ~capture:path ()
  in
  check_bool "capture recorded ops" true
    (result.Pasta.Session.health.Pasta.Session.events_recorded > 0);
  (* The batch layout itself went through the codec: the trace carries
     packed access_batch ops, not an unpacked per-record stream. *)
  let s = Pasta.Replay.stat path in
  check_bool "trace carries packed access_batch ops" true
    (List.mem_assoc "access_batch" s.Pasta.Replay.s_kinds);
  check_bool "trace carries no unpacked global_access ops" false
    (List.mem_assoc "global_access" s.Pasta.Replay.s_kinds);
  let hot = Pasta_tools.Hotness.create () in
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      path
  in
  let replayed = Format.asprintf "%t" o.Pasta.Replay.report in
  check_bool "columnar live vs replay byte-identical" true
    (String.equal live replayed);
  Sys.remove path

let suite =
  [
    qtest prop_accums_equal_reference;
    qtest prop_domains_identical;
    Alcotest.test_case "sanitizer columns consumer = per-record stream" `Quick
      test_sanitizer_columns_equal_records;
    Alcotest.test_case "columnar capture replays byte-identical" `Quick
      test_columnar_capture_replay;
  ]
