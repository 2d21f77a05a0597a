(* Adaptive sampling: unbiasedness of inverse-probability-weighted
   estimates, rate-1.0 byte-identity with the pre-sampling pipeline,
   determinism across domain counts, capture/replay round-trips of the
   rate schedule, and the overhead-budget governor — including its
   telemetry-blind degradation contract. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let ( let* ) x f = QCheck.Gen.( >>= ) x f

(* ------------------------------------------------------------------ *)
(* Warp.thin: statistics and mechanics                                 *)
(* ------------------------------------------------------------------ *)

let mk_batch ~len ~maxw seed =
  let rng = Pasta_util.Det_rng.of_key (Int64.of_int seed) [| 11; 7 |] in
  let addrs = Array.init len (fun i -> 4096 + (64 * i)) in
  let sizes = Array.make len 4 in
  let warps = Array.init len (fun i -> i / 32) in
  let weights = Array.init len (fun _ -> 1 + Pasta_util.Det_rng.int rng maxw) in
  let writes = Bytes.make len '\000' in
  Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:64 ~addrs ~sizes ~warps
    ~weights ~writes

let batch_weight = Gpusim.Warp.batch_weight

(* The headline estimator property: thinning keeps each record with
   probability [rate] and reweights survivors by 1/rate (stochastically
   rounded), so the expected thinned total equals the exact total.  We
   check the empirical mean over independent thinning streams against the
   ground truth within a tolerance several sigma wide for these sizes. *)
let prop_thin_unbiased =
  let gen =
    let* len = QCheck.Gen.int_range 512 1024 in
    let* maxw = QCheck.Gen.int_range 1 9 in
    let* rate = QCheck.Gen.oneofl [ 0.5; 0.25 ] in
    let* seed = QCheck.Gen.int_range 1 1_000_000 in
    QCheck.Gen.return (len, maxw, rate, seed)
  in
  QCheck.Test.make ~name:"thin: inverse-probability weights are unbiased"
    ~count:10
    (QCheck.make gen ~print:(fun (len, maxw, rate, seed) ->
         Printf.sprintf "len=%d maxw=%d rate=%g seed=%d" len maxw rate seed))
    (fun (len, maxw, rate, seed) ->
      let b = mk_batch ~len ~maxw seed in
      let exact = float_of_int (batch_weight b) in
      let trials = 64 in
      let sum = ref 0.0 in
      for t = 1 to trials do
        let rng =
          Pasta_util.Det_rng.of_key (Int64.of_int seed) [| 3; t; 0x5A3D |]
        in
        let thinned = Gpusim.Warp.thin ~rng ~rate b in
        sum := !sum +. float_of_int (batch_weight thinned)
      done;
      let mean = !sum /. float_of_int trials in
      Float.abs (mean -. exact) /. exact < 0.05)

let prop_thin_structure =
  let gen =
    let* len = QCheck.Gen.int_range 1 512 in
    let* maxw = QCheck.Gen.int_range 1 9 in
    let* rate = QCheck.Gen.oneofl [ 0.9; 0.5; 0.1 ] in
    let* seed = QCheck.Gen.int_range 1 1_000_000 in
    QCheck.Gen.return (len, maxw, rate, seed)
  in
  QCheck.Test.make
    ~name:"thin: survivors are a subsequence with positive weights" ~count:50
    (QCheck.make gen ~print:(fun (len, maxw, rate, seed) ->
         Printf.sprintf "len=%d maxw=%d rate=%g seed=%d" len maxw rate seed))
    (fun (len, maxw, rate, seed) ->
      let b = mk_batch ~len ~maxw seed in
      let rng = Pasta_util.Det_rng.of_key (Int64.of_int seed) [| 9; 0x5A3D |] in
      let t = Gpusim.Warp.thin ~rng ~rate b in
      let module W = Gpusim.Warp in
      t.W.b_len <= b.W.b_len
      && t.W.b_region = b.W.b_region
      && t.W.b_pc = b.W.b_pc
      &&
      (* every surviving address appears in the original, in order *)
      let ok = ref true in
      let j = ref 0 in
      let bc = W.cols b and tc = W.cols t in
      for i = 0 to t.W.b_len - 1 do
        while !j < b.W.b_len && bc.W.addrs.{!j} <> tc.W.addrs.{i} do
          incr j
        done;
        if !j >= b.W.b_len then ok := false else incr j;
        if tc.W.weights.{i} < 1 then ok := false
      done;
      !ok)

let test_thin_rate_one_is_physical_identity () =
  let b = mk_batch ~len:256 ~maxw:4 42 in
  let rng = Pasta_util.Det_rng.of_key 1L [| 0x5A3D |] in
  check_bool "rate 1.0 returns the batch unchanged" true
    (Gpusim.Warp.thin ~rng ~rate:1.0 b == b);
  check_bool "rate above 1.0 clamps to identity" true
    (Gpusim.Warp.thin ~rng ~rate:2.0 b == b)

let test_thin_determinism () =
  let b = mk_batch ~len:512 ~maxw:6 7 in
  let thin () =
    let rng = Pasta_util.Det_rng.of_key 99L [| 1; 2; 0x5A3D |] in
    Gpusim.Warp.thin ~rng ~rate:0.3 b
  in
  let a = thin () and c = thin () in
  let module W = Gpusim.Warp in
  check_int "same stream, same survivor count" a.W.b_len c.W.b_len;
  let same_col n get get' =
    let ok = ref true in
    for i = 0 to n - 1 do
      if get i <> get' i then ok := false
    done;
    !ok
  in
  check_bool "same stream, same records" true
    (let ac = W.cols a and cc = W.cols c in
     same_col a.W.b_len (fun i -> ac.W.addrs.{i}) (fun i -> cc.W.addrs.{i})
     && same_col a.W.b_len (fun i -> ac.W.weights.{i}) (fun i -> cc.W.weights.{i}))

(* ------------------------------------------------------------------ *)
(* Devagg estimate stamping                                            *)
(* ------------------------------------------------------------------ *)

let test_devagg_est_rate () =
  let om = Pasta.Objmap.create () in
  let view = Pasta.Objmap.view om in
  let b = mk_batch ~len:128 ~maxw:3 5 in
  let acc = Pasta.Devagg.accum_create () in
  Pasta.Devagg.accum_add acc view b;
  let exact = Pasta.Devagg.merge_accums [| acc |] in
  check_bool "default merge is exact" true (exact.Pasta.Devagg.est_rate = 1.0);
  check_bool "exact summaries have zero stderr" true
    (Pasta.Devagg.rel_stderr exact = 0.0);
  let est = Pasta.Devagg.merge_accums ~est_rate:0.25 [| acc |] in
  check_bool "est_rate is stamped" true (est.Pasta.Devagg.est_rate = 0.25);
  check_bool "estimates carry positive stderr" true
    (Pasta.Devagg.rel_stderr est > 0.0);
  let s_exact = Format.asprintf "%a" Pasta.Devagg.pp exact in
  let s_est = Format.asprintf "%a" Pasta.Devagg.pp est in
  check_bool "exact pp has no estimate marker" false
    (Astring_contains.contains s_exact "estimate");
  check_bool "estimated pp is annotated" true
    (Astring_contains.contains s_est "estimate")

(* The merge folds accumulators 1..n-1 into accumulator 0 and resets
   them: the summary is one accumulator's over every batch, and merging
   the same array again must not count anything twice. *)
let test_devagg_merge_in_place () =
  let view = Pasta.Objmap.view (Pasta.Objmap.create ()) in
  let batches = List.init 6 (fun i -> mk_batch ~len:(32 + (16 * i)) ~maxw:3 (40 + i)) in
  let accums = Array.init 3 (fun _ -> Pasta.Devagg.accum_create ()) in
  List.iteri (fun i b -> Pasta.Devagg.accum_add accums.(i mod 3) view b) batches;
  let one = Pasta.Devagg.accum_create () in
  List.iter (Pasta.Devagg.accum_add one view) batches;
  let merged = Pasta.Devagg.merge_accums accums in
  check_bool "three accumulators merge to one's summary" true
    (merged = Pasta.Devagg.merge_accums [| one |]);
  check_bool "merging again gives the same summary" true
    (Pasta.Devagg.merge_accums accums = merged)

(* ------------------------------------------------------------------ *)
(* Config parsing                                                      *)
(* ------------------------------------------------------------------ *)

let test_parse_budget () =
  let p = Pasta.Config.parse_budget in
  check_bool "percent form" true (p "5%" = Some 0.05);
  check_bool "fraction form" true (p "0.05" = Some 0.05);
  check_bool "whitespace tolerated" true (p " 10% " = Some 0.1);
  check_bool "one hundred percent" true (p "100%" = Some 1.0);
  check_bool "zero rejected" true (p "0" = None);
  check_bool "over one rejected" true (p "1.5" = None);
  check_bool "over 100% rejected" true (p "150%" = None);
  check_bool "junk rejected" true (p "fast" = None);
  check_bool "empty rejected" true (p "" = None)

let test_sampler_validation () =
  (match Pasta.Sampler.create (Pasta.Sampler.Fixed 0.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate 0 must be rejected");
  (match Pasta.Sampler.create (Pasta.Sampler.Auto { budget = 2.0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "budget above 1 must be rejected");
  (match Pasta.Sampler.of_config () with
  | None -> ()
  | Some _ -> Alcotest.fail "no knobs, no governor");
  (match Pasta.Sampler.of_config ~rate:0.5 () with
  | Some g -> (
      match Pasta.Sampler.mode g with
      | Pasta.Sampler.Fixed r -> check_bool "fixed rate" true (r = 0.5)
      | _ -> Alcotest.fail "bare rate must select Fixed")
  | None -> Alcotest.fail "rate must install a governor");
  match Pasta.Sampler.of_config ~rate:0.5 ~budget:0.1 () with
  | Some g -> (
      match Pasta.Sampler.mode g with
      | Pasta.Sampler.Auto { budget } ->
          check_bool "budget governs" true (budget = 0.1)
      | _ -> Alcotest.fail "budget must select Auto")
  | None -> Alcotest.fail "budget must install a governor"

(* ------------------------------------------------------------------ *)
(* Pipeline byte-identity and determinism                              *)
(* ------------------------------------------------------------------ *)

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One live BERT run under the fine-grained parallel hotness tool.
   [rate]/[budget] engage the sampler; [faulty] installs a pinned-seed
   injector; [capture] records a trace alongside. *)
let live_run ?rate ?budget ?capture ~faulty ~domains () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let faults =
    if faulty then Some (Gpusim.Faults.create ~seed:24285L ()) else None
  in
  let hot = Pasta_tools.Hotness.create () in
  let (), result =
    Pasta.Session.run ~sample_cap:256 ?sample_rate:rate ?overhead_budget:budget
      ?faults ?capture
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  (Format.asprintf "%t" result.Pasta.Session.report, result)

let test_rate_one_byte_identical ~faulty ~domains () =
  let baseline, _ = live_run ~faulty ~domains () in
  let sampled, r = live_run ~rate:1.0 ~faulty ~domains () in
  check_bool "rate 1.0 report byte-identical to pre-sampling pipeline" true
    (String.equal baseline sampled);
  check_bool "no estimate annotation at rate 1.0" false
    (Astring_contains.contains sampled "estimated from sampled");
  match r.Pasta.Session.health.Pasta.Session.sampling with
  | Some sn ->
      check_int "rate 1.0 fixed governor never adjusts" 0
        sn.Pasta.Sampler.sn_adjustments
  | None -> Alcotest.fail "governor state missing from health"

let test_sampled_domain_invariance () =
  let a, _ = live_run ~rate:0.25 ~faulty:false ~domains:1 () in
  let b, _ = live_run ~rate:0.25 ~faulty:false ~domains:4 () in
  check_bool "rate 0.25 report identical at 1 and 4 domains" true
    (String.equal a b);
  check_bool "estimates are annotated" true
    (Astring_contains.contains a "estimated from sampled")

let test_sampled_faulty_determinism () =
  let a, _ = live_run ~rate:0.25 ~faulty:true ~domains:1 () in
  let b, _ = live_run ~rate:0.25 ~faulty:true ~domains:4 () in
  check_bool "sampling composes with fault injection deterministically" true
    (String.equal a b)

(* ------------------------------------------------------------------ *)
(* Rate schedule through capture/replay                                *)
(* ------------------------------------------------------------------ *)

let temp_trace () = Filename.temp_file "pasta_sampling" ".ptrace"

let replay_report path =
  let hot = Pasta_tools.Hotness.create () in
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      path
  in
  (o, Format.asprintf "%t" o.Pasta.Replay.report)

let test_fixed_rate_replay () =
  let path = temp_trace () in
  let live, _ = live_run ~rate:0.25 ~faulty:false ~domains:2 ~capture:path () in
  let _, replayed = replay_report path in
  check_bool "sampled live vs replay byte-identical" true
    (String.equal live replayed);
  let s = Pasta.Replay.stat path in
  check_bool "rate schedule recorded in the trace" true
    (List.mem_assoc "sample_rate" s.Pasta.Replay.s_kinds);
  Sys.remove path

let test_rate_one_trace_has_no_schedule () =
  let path = temp_trace () in
  let _ = live_run ~rate:1.0 ~faulty:false ~domains:1 ~capture:path () in
  let s = Pasta.Replay.stat path in
  check_bool "rate 1.0 records no sample_rate ops" false
    (List.mem_assoc "sample_rate" s.Pasta.Replay.s_kinds);
  Sys.remove path

let test_auto_governor_replay () =
  let path = temp_trace () in
  let live, r = live_run ~budget:0.3 ~faulty:false ~domains:2 ~capture:path () in
  (match r.Pasta.Session.health.Pasta.Session.sampling with
  | Some sn ->
      check_bool "governor observed windows" true (sn.Pasta.Sampler.sn_windows > 0)
  | None -> Alcotest.fail "governor state missing from health");
  (* The auto schedule is wall-clock-driven and unrepeatable, but the
     recorded schedule replays to the exact live report. *)
  let _, replayed = replay_report path in
  check_bool "auto-governed live vs replay byte-identical" true
    (String.equal live replayed);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Governor behaviour                                                  *)
(* ------------------------------------------------------------------ *)

let test_auto_health_reported () =
  let _, r = live_run ~budget:0.3 ~faulty:false ~domains:1 () in
  match r.Pasta.Session.health.Pasta.Session.sampling with
  | Some sn ->
      check_int "one feedback window per kernel" r.Pasta.Session.kernels
        sn.Pasta.Sampler.sn_windows;
      check_bool "rate stays in (0, 1]" true
        (sn.Pasta.Sampler.sn_rate > 0.0 && sn.Pasta.Sampler.sn_rate <= 1.0);
      check_bool "no blind windows with telemetry on" true
        (sn.Pasta.Sampler.sn_blind_windows = 0);
      let h = Format.asprintf "%a" Pasta.Session.pp_health r.Pasta.Session.health in
      check_bool "health names the governor" true
        (Astring_contains.contains h "sampling: auto")
  | None -> Alcotest.fail "governor state missing from health"

(* Satellite regression: ACCEL_PROF_TELEMETRY=off strips the governor of
   its feedback signal.  It must degrade to the fixed fallback rate and
   surface a warning counter — not silently pin rate 1.0. *)
let test_blind_governor_degrades () =
  Pasta.Config.set "ACCEL_PROF_TELEMETRY" "off";
  Fun.protect
    ~finally:(fun () ->
      Pasta.Config.unset "ACCEL_PROF_TELEMETRY";
      Pasta.Telemetry.refresh_level ())
    (fun () ->
      let _, r = live_run ~budget:0.05 ~faulty:false ~domains:1 () in
      match r.Pasta.Session.health.Pasta.Session.sampling with
      | Some sn ->
          check_bool "blind windows counted" true
            (sn.Pasta.Sampler.sn_blind_windows > 0);
          check_bool "fallback rate in force, not 1.0" true
            (sn.Pasta.Sampler.sn_rate = Pasta.Sampler.default_blind_rate);
          let h =
            Format.asprintf "%a" Pasta.Session.pp_health
              r.Pasta.Session.health
          in
          check_bool "health warns about the blind governor" true
            (Astring_contains.contains h "telemetry off")
      | None -> Alcotest.fail "governor state missing from health")

let test_blind_governor_uses_configured_fallback () =
  Pasta.Config.set "ACCEL_PROF_TELEMETRY" "off";
  Fun.protect
    ~finally:(fun () ->
      Pasta.Config.unset "ACCEL_PROF_TELEMETRY";
      Pasta.Telemetry.refresh_level ())
    (fun () ->
      let _, r =
        live_run ~rate:0.4 ~budget:0.05 ~faulty:false ~domains:1 ()
      in
      match r.Pasta.Session.health.Pasta.Session.sampling with
      | Some sn ->
          check_bool "explicit rate becomes the blind fallback" true
            (sn.Pasta.Sampler.sn_rate = 0.4)
      | None -> Alcotest.fail "governor state missing from health")

let suite =
  [
    qtest prop_thin_unbiased;
    qtest prop_thin_structure;
    Alcotest.test_case "thin: rate 1.0 is a physical no-op" `Quick
      test_thin_rate_one_is_physical_identity;
    Alcotest.test_case "thin: same stream, same survivors" `Quick
      test_thin_determinism;
    Alcotest.test_case "devagg stamps est_rate and stderr" `Quick
      test_devagg_est_rate;
    Alcotest.test_case "devagg merges in place, repeatably" `Quick
      test_devagg_merge_in_place;
    Alcotest.test_case "overhead budget parsing" `Quick test_parse_budget;
    Alcotest.test_case "sampler validation and resolution" `Quick
      test_sampler_validation;
    Alcotest.test_case "rate 1.0 byte-identical (1 domain)" `Quick
      (test_rate_one_byte_identical ~faulty:false ~domains:1);
    Alcotest.test_case "rate 1.0 byte-identical (4 domains)" `Quick
      (test_rate_one_byte_identical ~faulty:false ~domains:4);
    Alcotest.test_case "rate 1.0 byte-identical under faults" `Quick
      (test_rate_one_byte_identical ~faulty:true ~domains:2);
    Alcotest.test_case "rate 0.25 identical across domain counts" `Quick
      test_sampled_domain_invariance;
    Alcotest.test_case "sampling composes with faults" `Quick
      test_sampled_faulty_determinism;
    Alcotest.test_case "fixed-rate capture replays byte-identically" `Quick
      test_fixed_rate_replay;
    Alcotest.test_case "rate 1.0 trace carries no rate schedule" `Quick
      test_rate_one_trace_has_no_schedule;
    Alcotest.test_case "auto-governed capture replays byte-identically" `Quick
      test_auto_governor_replay;
    Alcotest.test_case "auto governor reports health" `Quick
      test_auto_health_reported;
    Alcotest.test_case "telemetry-off governor degrades loudly" `Quick
      test_blind_governor_degrades;
    Alcotest.test_case "blind fallback honours configured rate" `Quick
      test_blind_governor_uses_configured_fallback;
  ]
