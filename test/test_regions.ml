(* Intra-kernel region profiling: exact partition of kernel wall time,
   stable region ids, byte-identical reports across domain counts under
   faults and sampling, capture/replay round-trips of region ops, and
   unbiasedness of the per-region weighted tallies under thinning. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let ( let* ) x f = QCheck.Gen.( >>= ) x f

(* ------------------------------------------------------------------ *)
(* exact_partition: the float algebra underneath everything            *)
(* ------------------------------------------------------------------ *)

let sum_l2r a = Array.fold_left ( +. ) 0.0 a
let sum_r2l a = Array.fold_right ( +. ) a 0.0

let prop_exact_partition =
  let gen =
    let* total = QCheck.Gen.float_range 1e-6 1e9 in
    let* n = QCheck.Gen.int_range 1 16 in
    let* weights = QCheck.Gen.array_repeat n (QCheck.Gen.float_range 0.0 1e6) in
    QCheck.Gen.return (total, weights)
  in
  QCheck.Test.make
    ~name:"exact_partition sums to total bit-for-bit in any order" ~count:500
    (QCheck.make gen ~print:(fun (total, weights) ->
         Printf.sprintf "total=%h weights=[%s]" total
           (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") weights)))))
    (fun (total, weights) ->
      let d = Gpusim.Instrpass.exact_partition ~total weights in
      Array.length d = Array.length weights
      && Array.for_all (fun x -> x >= 0.0) d
      && sum_l2r d = total
      && sum_r2l d = total
      &&
      (* a third, interleaved order: evens then odds *)
      let odd = ref 0.0 and even = ref 0.0 in
      Array.iteri (fun i x -> if i land 1 = 0 then even := !even +. x else odd := !odd +. x) d;
      !even +. !odd = total)

let test_exact_partition_edges () =
  let d = Gpusim.Instrpass.exact_partition ~total:0.0 [| 1.0; 2.0 |] in
  check_bool "non-positive total yields zeros" true (d = [| 0.0; 0.0 |]);
  let d = Gpusim.Instrpass.exact_partition ~total:7.5 [| 0.0; 0.0; 0.0 |] in
  check_bool "all-zero weights fall back to an even split" true
    (sum_l2r d = 7.5 && Array.for_all (fun x -> x > 0.0) d)

(* ------------------------------------------------------------------ *)
(* timeline: spans partition a launch and carry stable ids             *)
(* ------------------------------------------------------------------ *)

let gen_kernel =
  let* nregions = QCheck.Gen.int_range 1 4 in
  let* accesses = QCheck.Gen.array_repeat nregions (QCheck.Gen.int_range 1 4096) in
  let* shared = QCheck.Gen.oneofl [ 0; 1024 ] in
  let* barriers = QCheck.Gen.int_range 0 3 in
  let* flops = QCheck.Gen.float_range 0.0 1e6 in
  let regions =
    Array.to_list
      (Array.mapi
         (fun i n ->
           Gpusim.Kernel.region
             ~write:(i land 1 = 1)
             ~base:(0x10000 * (i + 1))
             ~bytes:(n * 4) ~accesses:n ())
         accesses)
  in
  QCheck.Gen.return
    (Gpusim.Kernel.make ~name:"qk" ~grid:(Gpusim.Dim3.make 4)
       ~block:(Gpusim.Dim3.make 128) ~regions ~flops ~shared_bytes:shared
       ~barriers ())

let print_kernel k = Gpusim.Kernel.((k : t).name)

let prop_timeline_partitions =
  let gen =
    let* k = gen_kernel in
    let* wall = QCheck.Gen.float_range 1e-3 1e4 in
    let* t0 = QCheck.Gen.float_range 0.0 1e6 in
    QCheck.Gen.return (k, wall, t0)
  in
  QCheck.Test.make ~name:"timeline spans exactly cover [t0, t0+wall]" ~count:200
    (QCheck.make gen ~print:(fun (k, wall, t0) ->
         Printf.sprintf "%s wall=%h t0=%h" (print_kernel k) wall t0))
    (fun (k, wall, t0) ->
      let module I = Gpusim.Instrpass in
      let check g =
        let spans = I.timeline Gpusim.Arch.a100 k g ~t0 ~wall in
        Array.length spans > 0
        && sum_l2r (Array.map (fun s -> s.I.t_time_us) spans) = wall
        && sum_r2l (Array.map (fun s -> s.I.t_time_us) spans) = wall
        && spans.(0).I.t_start_us = t0
        && Array.for_all (fun s -> s.I.t_time_us >= 0.0) spans
        &&
        (* contiguous: each span starts where the previous ended *)
        let ok = ref true in
        for i = 0 to Array.length spans - 2 do
          if spans.(i + 1).I.t_start_us <> spans.(i).I.t_start_us +. spans.(i).I.t_time_us
          then ok := false
        done;
        !ok
      in
      check I.Coarse && check I.Fine
      && I.timeline Gpusim.Arch.a100 k I.Off ~t0 ~wall = [||])

let prop_timeline_ids_stable =
  let gen =
    let* k = gen_kernel in
    let* wall = QCheck.Gen.float_range 1e-3 1e4 in
    QCheck.Gen.return (k, wall)
  in
  QCheck.Test.make
    ~name:"region ids are stable across runs and independent of timing"
    ~count:100
    (QCheck.make gen ~print:(fun (k, wall) ->
         Printf.sprintf "%s wall=%h" (print_kernel k) wall))
    (fun (k, wall) ->
      let module I = Gpusim.Instrpass in
      let ids ~t0 ~wall =
        Array.map
          (fun s -> (s.I.t_id, s.I.t_label, s.I.t_start_pc, s.I.t_end_pc))
          (I.timeline Gpusim.Arch.a100 k I.Fine ~t0 ~wall)
      in
      (* same static layout, different dynamic timing: identical ids *)
      ids ~t0:0.0 ~wall = ids ~t0:123.5 ~wall:(wall *. 2.0)
      &&
      let spans = I.timeline Gpusim.Arch.a100 k I.Fine ~t0:0.0 ~wall in
      Array.for_all
        (fun s ->
          s.I.t_id >= 0
          && s.I.t_id
             = I.region_id ~kernel_name:Gpusim.Kernel.(k.name)
                 ~start_pc:s.I.t_start_pc ~end_pc:s.I.t_end_pc)
        spans)

(* ------------------------------------------------------------------ *)
(* Live pipeline: exactness, domain invariance, capture/replay         *)
(* ------------------------------------------------------------------ *)

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One live BERT run with region instrumentation on.  [which] picks the
   consuming tool; faults and sampling compose with the region stream. *)
let live_run ?rate ?capture ~which ~faulty ~domains () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  Pasta.Config.set "ACCEL_PROF_REGIONS" "fine";
  Fun.protect
    ~finally:(fun () ->
      Pasta.Config.unset "ACCEL_PROF_DOMAINS";
      Pasta.Config.unset "ACCEL_PROF_REGIONS")
    (fun () ->
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let faults =
        if faulty then Some (Gpusim.Faults.create ~seed:24285L ()) else None
      in
      let lat = Pasta_tools.Region_latency.create () in
      let tool =
        match which with
        | `Latency -> Pasta_tools.Region_latency.tool lat
        | `Roofline ->
            Pasta_tools.Region_roofline.tool (Pasta_tools.Region_roofline.create ())
      in
      let (), result =
        Pasta.Session.run ~sample_cap:256 ?sample_rate:rate ?faults ?capture
          ~tool device (bert_inference ctx)
      in
      Dlfw.Ctx.destroy ctx;
      (Format.asprintf "%t" result.Pasta.Session.report, lat))

let test_live_exact_partition () =
  let _, lat = live_run ~which:`Latency ~faulty:false ~domains:2 () in
  let totals = Pasta_tools.Region_latency.totals lat in
  check_bool "kernels observed" true (totals <> []);
  List.iter
    (fun (name, wall, sum) ->
      check_bool (name ^ ": regions sum to wall bit-for-bit") true (sum = wall))
    totals

(* Sampling thins the access-record stream, never the region stream or
   the launch summaries, so sub-1.0 rates must leave the partition
   bit-exact. *)
let test_live_exact_partition_sampled () =
  let report, lat =
    live_run ~rate:0.25 ~which:`Latency ~faulty:false ~domains:4 ()
  in
  List.iter
    (fun (name, wall, sum) ->
      check_bool (name ^ ": exact under sub-1.0 sampling") true (sum = wall))
    (Pasta_tools.Region_latency.totals lat);
  check_bool "report asserts the partition" true
    (Astring_contains.contains report "exact partition");
  check_bool "no unmatched exits" false
    (Astring_contains.contains report "WARNING")

(* Fault injection may drop or duplicate [Launch_end] summaries (region
   probes are exempt), so the wall total and the region total can
   legitimately diverge — but never silently: every divergent kernel must
   be flagged in the report. *)
let test_faulty_mismatch_flagged () =
  let report, lat =
    live_run ~rate:0.25 ~which:`Latency ~faulty:true ~domains:4 ()
  in
  List.iter
    (fun (name, wall, sum) ->
      check_bool (name ^ ": exact or loudly mismatched") true
        (sum = wall || Astring_contains.contains report "WALL MISMATCH"))
    (Pasta_tools.Region_latency.totals lat);
  check_bool "probes stay balanced even under faults" false
    (Astring_contains.contains report "WARNING")

let test_domain_invariance () =
  let digest domains =
    let a, _ = live_run ~rate:0.25 ~which:`Latency ~faulty:true ~domains () in
    let b, _ = live_run ~rate:0.25 ~which:`Roofline ~faulty:true ~domains () in
    a ^ b
  in
  let d1 = digest 1 in
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "region reports identical at 1 vs %d domains" n)
        true
        (String.equal d1 (digest n)))
    [ 2; 4; 8 ]

let temp_trace () = Filename.temp_file "pasta_regions" ".ptrace"

let test_capture_replay_regions () =
  let path = temp_trace () in
  let live, _ =
    live_run ~rate:0.25 ~which:`Roofline ~faulty:true ~domains:2 ~capture:path ()
  in
  let s = Pasta.Replay.stat path in
  check_bool "trace records region enters" true
    (List.mem_assoc "region_enter" s.Pasta.Replay.s_kinds);
  check_bool "trace records region exits" true
    (List.mem_assoc "region_exit" s.Pasta.Replay.s_kinds);
  check_int "enters and exits are balanced"
    (List.assoc "region_enter" s.Pasta.Replay.s_kinds)
    (List.assoc "region_exit" s.Pasta.Replay.s_kinds);
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Region_roofline.tool (Pasta_tools.Region_roofline.create ()))
      path
  in
  check_bool "live vs replay byte-identical with regions on" true
    (String.equal live (Format.asprintf "%t" o.Pasta.Replay.report));
  Sys.remove path

let test_replay_latency_exact () =
  let path = temp_trace () in
  let live, _ =
    live_run ~which:`Latency ~faulty:false ~domains:1 ~capture:path ()
  in
  let lat = Pasta_tools.Region_latency.create () in
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Region_latency.tool lat)
      path
  in
  check_bool "latency live vs replay byte-identical" true
    (String.equal live (Format.asprintf "%t" o.Pasta.Replay.report));
  List.iter
    (fun (name, wall, sum) ->
      check_bool (name ^ ": replayed partition still exact") true (sum = wall))
    (Pasta_tools.Region_latency.totals lat);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* ptrace encoding round-trip for region payloads                      *)
(* ------------------------------------------------------------------ *)

let sample_ki =
  {
    Pasta.Event.device_id = 0;
    grid_id = 7;
    stream = 1;
    name = "relu_kernel";
    grid = Gpusim.Dim3.make 16;
    block = Gpusim.Dim3.make 256;
    shared_bytes = 0;
    arg_ptrs = [ 0x10000 ];
    py_stack = [];
    native_stack = [];
  }

let sample_span =
  {
    Pasta.Event.rg_id = 0x1234abcd;
    rg_label = "gmem[0].ld";
    rg_start_pc = 48;
    rg_end_pc = 80;
    rg_mem_region = 0;
    rg_start_us = 1.0625;
    rg_time_us = 2.125;
    rg_bytes = 256;
    rg_flops = 0.0;
  }

let test_ptrace_payload_roundtrip () =
  List.iter
    (fun p ->
      let s = Pasta.Ptrace.payload_to_string p in
      check_bool
        (Pasta.Event.kind_name p ^ " round-trips byte-exactly")
        true
        (Pasta.Ptrace.payload_of_string s = p))
    [
      Pasta.Event.Region_enter { kernel = sample_ki; span = sample_span };
      Pasta.Event.Region_exit
        {
          kernel = sample_ki;
          span = { sample_span with Pasta.Event.rg_mem_region = -1; rg_flops = 3.5 };
        };
    ]

(* Each Region_exit bumps its label's slice counter and time gauge.  The
   processor caches the two handles per label, so the exposition must read
   exactly as find-or-create registration leaves it: one counter and one
   gauge per label, region label first, labels in first-seen order. *)
let test_region_metric_series () =
  let p = Pasta.Processor.create ~device:0 () in
  let exit label rg_time_us =
    Pasta.Processor.submit p ~time_us:0.0
      (Pasta.Event.Region_exit
         {
           kernel = sample_ki;
           span = { sample_span with Pasta.Event.rg_label = label; rg_time_us };
         })
  in
  exit "prologue" 1.0;
  exit "compute" 2.5;
  exit "prologue" 0.5;
  let region_lines =
    String.split_on_char '\n'
      (Pasta_util.Metric.to_prometheus (Pasta.Processor.metrics p))
    |> List.filter (fun l -> Astring_contains.contains l "pasta_region_")
  in
  Alcotest.(check (list string))
    "region series"
    [
      "# HELP pasta_region_slices intra-kernel region exits observed";
      "# TYPE pasta_region_slices counter";
      "pasta_region_slices{region=\"prologue\",device=\"0\"} 2";
      "pasta_region_slices{region=\"compute\",device=\"0\"} 1";
      "# HELP pasta_region_time_us cumulative kernel time attributed to the region";
      "# TYPE pasta_region_time_us gauge";
      "pasta_region_time_us{region=\"prologue\",device=\"0\"} 1.500000";
      "pasta_region_time_us{region=\"compute\",device=\"0\"} 2.500000";
    ]
    region_lines

(* ------------------------------------------------------------------ *)
(* Per-region weighted tallies stay unbiased under thinning            *)
(* ------------------------------------------------------------------ *)

let mk_batch ~region ~len ~maxw seed =
  let rng = Pasta_util.Det_rng.of_key (Int64.of_int seed) [| 13; region |] in
  let addrs = Array.init len (fun i -> 4096 + (64 * i) + (0x100000 * region)) in
  let sizes = Array.make len 4 in
  let warps = Array.init len (fun i -> i / 32) in
  let weights = Array.init len (fun _ -> 1 + Pasta_util.Det_rng.int rng maxw) in
  let writes = Bytes.make len '\000' in
  Gpusim.Warp.batch_of_arrays ~region ~chunk:region ~pc:64 ~addrs ~sizes ~warps
    ~weights ~writes

let prop_region_weights_unbiased =
  let gen =
    let* len = QCheck.Gen.int_range 256 512 in
    let* maxw = QCheck.Gen.int_range 1 6 in
    let* seed = QCheck.Gen.int_range 1 1_000_000 in
    QCheck.Gen.return (len, maxw, seed)
  in
  QCheck.Test.make
    ~name:"per-region weighted tallies are unbiased under thinning" ~count:5
    (QCheck.make gen ~print:(fun (len, maxw, seed) ->
         Printf.sprintf "len=%d maxw=%d seed=%d" len maxw seed))
    (fun (len, maxw, seed) ->
      let om = Pasta.Objmap.create () in
      let view = Pasta.Objmap.view om in
      let rate = 0.25 in
      let batches = List.init 3 (fun r -> mk_batch ~region:r ~len ~maxw seed) in
      let summarize ?est_rate batches =
        let acc = Pasta.Devagg.accum_create () in
        List.iter (Pasta.Devagg.accum_add acc view) batches;
        Pasta.Devagg.merge_accums ?est_rate [| acc |]
      in
      let exact = (summarize batches).Pasta.Devagg.regions in
      let trials = 64 in
      let sums = Hashtbl.create 8 in
      for t = 1 to trials do
        let est =
          summarize ~est_rate:rate
            (List.map
               (fun b ->
                 let rng =
                   Pasta_util.Det_rng.of_key (Int64.of_int seed)
                     [| 17; t; Gpusim.Warp.(b.b_region) |]
                 in
                 Gpusim.Warp.thin ~rng ~rate b)
               batches)
        in
        (match Pasta.Devagg.validate est with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "thinned summary invalid: %s" e);
        List.iter
          (fun (r, w) ->
            Hashtbl.replace sums r
              (w + Option.value (Hashtbl.find_opt sums r) ~default:0))
          est.Pasta.Devagg.regions
      done;
      List.for_all
        (fun (r, true_w) ->
          let mean =
            float_of_int (Option.value (Hashtbl.find_opt sums r) ~default:0)
            /. float_of_int trials
          in
          Float.abs (mean -. float_of_int true_w) /. float_of_int true_w < 0.05)
        exact)

(* ------------------------------------------------------------------ *)
(* Config knob and the off default                                     *)
(* ------------------------------------------------------------------ *)

let test_regions_knob_parsing () =
  let parse v =
    Pasta.Config.set "ACCEL_PROF_REGIONS" v;
    Fun.protect
      ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_REGIONS")
      (fun () -> Pasta.Config.regions ())
  in
  let module I = Gpusim.Instrpass in
  check_bool "fine" true (parse "fine" = I.Fine);
  check_bool "full alias" true (parse "full" = I.Fine);
  check_bool "coarse" true (parse "coarse" = I.Coarse);
  check_bool "on alias" true (parse "on" = I.Coarse);
  check_bool "off" true (parse "off" = I.Off);
  (match parse "sideways" with
  | _ -> Alcotest.fail "junk must be refused"
  | exception Invalid_argument msg ->
      check_bool "junk is refused, naming the knob and the value" true
        (Astring_contains.contains msg "ACCEL_PROF_REGIONS"
        && Astring_contains.contains msg "sideways"));
  check_bool "unset is off" true (Pasta.Config.regions () = I.Off)

let test_off_by_default () =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let lat = Pasta_tools.Region_latency.create () in
  let (), result =
    Pasta.Session.run
      ~tool:(Pasta_tools.Region_latency.tool lat)
      device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  check_bool "no probes without the knob" true
    (Astring_contains.contains
       (Format.asprintf "%t" result.Pasta.Session.report)
       "no region probes observed")

let suite =
  [
    qtest prop_exact_partition;
    Alcotest.test_case "exact_partition edge cases" `Quick
      test_exact_partition_edges;
    qtest prop_timeline_partitions;
    qtest prop_timeline_ids_stable;
    Alcotest.test_case "live run: regions sum to wall exactly" `Quick
      test_live_exact_partition;
    Alcotest.test_case "exact partition under sub-1.0 sampling" `Quick
      test_live_exact_partition_sampled;
    Alcotest.test_case "faulty launch summaries are flagged, not silent" `Quick
      test_faulty_mismatch_flagged;
    Alcotest.test_case "region reports identical at 1/2/4/8 domains" `Quick
      test_domain_invariance;
    Alcotest.test_case "region ops capture and replay byte-identically" `Quick
      test_capture_replay_regions;
    Alcotest.test_case "replayed latency partition stays exact" `Quick
      test_replay_latency_exact;
    Alcotest.test_case "ptrace region payload round-trip" `Quick
      test_ptrace_payload_roundtrip;
    Alcotest.test_case "region metric series per label" `Quick
      test_region_metric_series;
    qtest prop_region_weights_unbiased;
    Alcotest.test_case "ACCEL_PROF_REGIONS parsing" `Quick
      test_regions_knob_parsing;
    Alcotest.test_case "regions off by default" `Quick test_off_by_default;
  ]
