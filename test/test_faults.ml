(* The fault-tolerance layer: tool sandboxing (Guard), bounded record
   buffers, the session watchdog and deterministic fault injection.

   The contract under test is the paper's "attaching a profiler must never
   take the workload down" — here pushed to the adversarial extreme: tools
   that always raise, producers that outrun the buffer, and a device that
   actively corrupts, drops and duplicates its own telemetry. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let mk_kernel_info ?(grid_id = 1) ?(name = "k") () =
  {
    Pasta.Event.device_id = 0;
    grid_id;
    stream = 0;
    name;
    grid = Gpusim.Dim3.make 1;
    block = Gpusim.Dim3.make 32;
    shared_bytes = 0;
    arg_ptrs = [];
    py_stack = [];
    native_stack = [];
  }

(* One record at [addr], handed over on its own: a one-piece table. *)
let mk_record addr =
  let p = Gpusim.Warp.pieces () in
  Gpusim.Warp.add_piece p
    (Gpusim.Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0 ~addrs:[| addr |] ~sizes:[| 4 |]
       ~warps:[| 0 |] ~weights:[| 1 |] ~writes:(Bytes.make 1 '\000'))
    ~pos:0 ~len:1;
  Gpusim.Warp.stamp_pieces p 0.0;
  p

(* ---- Circuit breaker: a raising tool never aborts the workload ---- *)

(* A tool that raises from [on_event], or from [on_access_columns] on
   every batch it is handed: either way each failure is counted under
   the callback that raised, the breaker trips and the workload runs
   on. *)
let test_raising_tool_quarantined () =
  let bomb ?fine_grained () =
    {
      (Pasta.Tool.default ?fine_grained "bomb") with
      Pasta.Tool.report = (fun ppf -> Format.fprintf ppf "bomb: survived@.");
    }
  in
  List.iter
    (fun (callback, bomb) ->
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let v, result =
        Pasta.Session.run ~tool:bomb device (fun () ->
            let m = Dlfw.Bert.build ~batch:1 ~seq:32 ~layers:2 ~dim:64 ~heads:4 ctx in
            Dlfw.Model.inference_iter ctx m;
            42)
      in
      let h = result.Pasta.Session.health in
      let label what = callback ^ ": " ^ what in
      check_int (label "workload return value unaffected") 42 v;
      check_bool (label "failures counted") true (h.Pasta.Session.tool_failures >= 10);
      check_bool (label "breaker tripped") true (h.Pasta.Session.quarantines >= 1);
      check_bool (label "events suppressed during quarantine") true
        (h.Pasta.Session.events_suppressed > 0);
      check_bool (label "named in breakdown") true
        (List.mem_assoc callback h.Pasta.Session.failures_by_callback);
      check_bool (label "quarantine incident emitted") true
        (List.exists
           (fun (e : Pasta.Event.t) ->
             match e.Pasta.Event.payload with
             | Pasta.Event.Tool_quarantined { tool; _ } -> String.equal tool "bomb"
             | _ -> false)
           h.Pasta.Session.incidents);
      (* The report path is exception-safe and still reachable. *)
      check_string (label "report still runs") "bomb: survived\n"
        (Format.asprintf "%t" result.Pasta.Session.report);
      Dlfw.Ctx.destroy ctx)
    [
      ("on_event", { (bomb ()) with Pasta.Tool.on_event = (fun _ -> failwith "boom") });
      ( "on_access_columns",
        {
          (bomb ~fine_grained:Pasta.Tool.Cpu_sanitizer ()) with
          Pasta.Tool.on_access_columns = Some (fun _ _ -> failwith "boom");
        } );
    ]

let test_raising_tool_matches_clean_run () =
  (* The supervised-but-broken run must see the same workload as a clean
     one: same kernel count, same simulated event stream underneath. *)
  let run tool =
    let device = Gpusim.Device.create Gpusim.Arch.a100 in
    let ctx = Dlfw.Ctx.create device in
    let (), result =
      Pasta.Session.run ~tool device (fun () ->
          let m = Dlfw.Bert.build ~batch:1 ~seq:32 ~layers:2 ~dim:64 ~heads:4 ctx in
          Dlfw.Model.inference_iter ctx m)
    in
    let t = Gpusim.Device.now_us device in
    Dlfw.Ctx.destroy ctx;
    (result.Pasta.Session.kernels, result.Pasta.Session.events_seen, t)
  in
  let clean = run (Pasta.Tool.default "quiet") in
  let broken =
    run
      {
        (Pasta.Tool.default "bomb") with
        Pasta.Tool.on_event = (fun _ -> failwith "boom");
      }
  in
  check_bool "kernels, events and timing identical" true (clean = broken)

let test_guard_half_open_reinstates () =
  let trips = ref 0 in
  let tool =
    { (Pasta.Tool.default "flaky") with Pasta.Tool.on_event = ignore }
  in
  let g =
    Pasta.Guard.create ~threshold:2 ~cooldown_kernels:3
      ~on_trip:(fun ~failures:_ -> incr trips)
      tool
  in
  let boom _ = failwith "boom" in
  Pasta.Guard.call g Pasta.Guard.On_event (fun t -> boom t.Pasta.Tool.name);
  Pasta.Guard.call g Pasta.Guard.On_event (fun t -> boom t.Pasta.Tool.name);
  check_string "quarantined after threshold" "quarantined"
    (Pasta.Guard.state_name (Pasta.Guard.state g));
  check_int "tripped once" 1 !trips;
  (* Suppressed while quarantined. *)
  let ran = ref false in
  Pasta.Guard.call g Pasta.Guard.On_event (fun _ -> ran := true);
  check_bool "suppressed during quarantine" false !ran;
  check_bool "suppression counted" true (Pasta.Guard.suppressed_count g >= 1);
  (* Cooldown elapses in kernels; the next call is the half-open probe. *)
  Pasta.Guard.note_kernel g;
  Pasta.Guard.note_kernel g;
  Pasta.Guard.note_kernel g;
  check_string "half-open after cooldown" "half-open"
    (Pasta.Guard.state_name (Pasta.Guard.state g));
  Pasta.Guard.call g Pasta.Guard.On_event (fun _ -> ran := true);
  check_bool "probe ran" true !ran;
  check_string "reinstated on probe success" "closed"
    (Pasta.Guard.state_name (Pasta.Guard.state g));
  check_int "reinstatement counted" 1 (Pasta.Guard.reinstated_count g)

(* ---- Bounded buffers: exact drop accounting per policy ---- *)

let overflow_run policy =
  let p =
    Pasta.Processor.create ~range:(Pasta.Range.create ()) ~buffer_capacity:4
      ~overflow_policy:policy ~device:0 ()
  in
  let seen = ref [] in
  Pasta.Processor.set_tool p
    {
      (Pasta.Tool.default "sink") with
      Pasta.Tool.on_access =
        (fun _ a -> seen := a.Pasta.Event.addr :: !seen);
    };
  let ki = mk_kernel_info () in
  for i = 1 to 10 do
    Pasta.Processor.submit_pieces p ki (mk_record i)
  done;
  Pasta.Processor.flush_records p;
  (List.rev !seen, Proc_counter.get p "pasta_records_dropped",
   Proc_counter.get p "pasta_buffer_stalls")

let test_drop_oldest_counts () =
  let delivered, dropped, stalls =
    overflow_run Pasta.Config.Drop_oldest
  in
  (* 10 pushed into capacity 4: the six oldest are evicted. *)
  check_int "exactly 6 dropped" 6 dropped;
  check_int "no stalls" 0 stalls;
  Alcotest.(check (list int)) "newest 4 survive" [ 7; 8; 9; 10 ] delivered

let test_drop_newest_counts () =
  let delivered, dropped, stalls =
    overflow_run Pasta.Config.Drop_newest
  in
  (* 10 pushed into capacity 4: the six newest are rejected at the door. *)
  check_int "exactly 6 dropped" 6 dropped;
  check_int "no stalls" 0 stalls;
  Alcotest.(check (list int)) "oldest 4 survive" [ 1; 2; 3; 4 ] delivered

let test_block_is_lossless () =
  let delivered, dropped, stalls = overflow_run Pasta.Config.Block in
  check_int "nothing dropped" 0 dropped;
  check_bool "producer stalled to drain" true (stalls >= 1);
  Alcotest.(check (list int)) "all 10 delivered in order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    delivered

(* A misspelled policy used to run silently as [block]. *)
let test_overflow_policy_knob () =
  let module R = Pasta.Config in
  let parse v =
    Pasta.Config.set "ACCEL_PROF_OVERFLOW_POLICY" v;
    Fun.protect
      ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_OVERFLOW_POLICY")
      Pasta.Config.overflow_policy
  in
  check_bool "drop-oldest" true (parse "drop-oldest" = R.Drop_oldest);
  check_bool "newest alias" true (parse "newest" = R.Drop_newest);
  check_bool "case-insensitive" true (parse "BLOCK" = R.Block);
  check_bool "unset is block" true (Pasta.Config.overflow_policy () = R.Block);
  match parse "drop-oldset" with
  | _ -> Alcotest.fail "a misspelled policy must be refused"
  | exception Invalid_argument msg ->
      check_bool "the refusal names the knob, the value and a spelling" true
        (List.for_all (Astring_contains.contains msg)
           [ "ACCEL_PROF_OVERFLOW_POLICY"; "drop-oldset"; "drop-oldest" ])

(* A strict numeric knob refuses a junk, zero, negative or (where it has
   one) over-the-cap value instead of running with its default; an empty
   value counts as unset. *)
let check_strict_knob key read ~default ~good:(good, taken) ~bad =
  let with_value v f =
    Pasta.Config.set key v;
    Fun.protect ~finally:(fun () -> Pasta.Config.unset key) f
  in
  check_int "unset is the default" default (read ());
  check_int "empty counts as unset" default (with_value "" read);
  check_int "a good value is taken" taken (with_value good read);
  check_bool "a good value validates" true (with_value good Pasta.Config.validate = Ok ());
  List.iter
    (fun v ->
      with_value v (fun () ->
          (match read () with
          | n -> Alcotest.failf "%s=%S ran with %d" key v n
          | exception Invalid_argument msg ->
              check_bool
                (Printf.sprintf "the refusal of %S names the knob and the value" v)
                true
                (List.for_all (Astring_contains.contains msg) [ key; Printf.sprintf "%S" v ]));
          match Pasta.Config.validate () with
          | Ok () -> Alcotest.failf "validate accepts %s=%S" key v
          | Error msg ->
              check_bool "validate names the knob" true (Astring_contains.contains msg key)))
    bad

let test_buffer_cap_knob () =
  check_strict_knob "ACCEL_PROF_BUFFER_CAP" Pasta.Config.buffer_capacity ~default:4096
    ~good:("64", 64) ~bad:[ "12x"; "0"; "-3" ]

(* The breaker's knobs: a junk threshold or cooldown used to run with
   the default. *)
let test_guard_knobs () =
  check_strict_knob "ACCEL_PROF_GUARD_THRESHOLD" Pasta.Config.guard_threshold ~default:10
    ~good:("3", 3) ~bad:[ "12x"; "0"; "-3" ];
  check_strict_knob "ACCEL_PROF_GUARD_COOLDOWN_KERNELS" Pasta.Config.guard_cooldown_kernels
    ~default:25 ~good:("7", 7) ~bad:[ "12x"; "0"; "-3" ]

(* The domain-pool size and the watchdog limit used to run with their
   defaults on a junk value.  A pool size above 64 still clamps to 64, and
   the limit takes any positive finite number of microseconds. *)
let test_domains_watchdog_knobs () =
  check_strict_knob "ACCEL_PROF_DOMAINS" Pasta.Config.domains
    ~default:(max 1 (min 8 (Domain.recommended_domain_count ())))
    ~good:("100", 64) ~bad:[ "12x"; "0"; "-3" ];
  check_strict_knob "ACCEL_PROF_WATCHDOG_US"
    (fun () -> Float.to_int (Pasta.Config.watchdog_us ()))
    ~default:1_000_000 ~good:("2500.5", 2500)
    ~bad:[ "12x"; "0"; "-3"; "nan"; "inf" ]

(* The chunk size is capped at 65536 KiB: a capture allocates its chunk
   buffer up front, and a larger count of KiB could overflow the byte
   budget to zero. *)
let test_trace_chunk_knob () =
  check_strict_knob "ACCEL_PROF_TRACE_CHUNK_KB" Pasta.Config.trace_chunk_bytes
    ~default:(256 * 1024) ~good:("65536", 65536 * 1024)
    ~bad:[ "12x"; "0"; "-3"; "9007199254740992"; "67108864"; "65537" ]

(* ---- Fault injection: deterministic, and survivable ---- *)

let fault_run seed =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let faults = Gpusim.Faults.create ~seed () in
  let kf = Pasta_tools.Kernel_freq.create () in
  let tx = Pasta.Trace_export.create () in
  (* The injector rides on the first session to attach; later sessions on
     the same device never stack a second one. *)
  let trace_session =
    Pasta.Session.attach ~faults ~tool:(Pasta.Trace_export.tool tx) device
  in
  let (), result =
    Pasta.Session.run ~faults ~tool:(Pasta_tools.Kernel_freq.tool kf) device
      (fun () ->
        let m = Dlfw.Bert.build ~batch:1 ~seq:32 ~layers:2 ~dim:64 ~heads:4 ctx in
        Dlfw.Model.inference_iter ctx m;
        Dlfw.Model.train_iter ctx m)
  in
  let _ = Pasta.Session.detach trace_session in
  let json = Pasta.Trace_export.to_json tx in
  let report = Format.asprintf "%t" result.Pasta.Session.report in
  let health = Format.asprintf "%a" Pasta.Session.pp_health result.Pasta.Session.health in
  let fs = result.Pasta.Session.health.Pasta.Session.fault_stats in
  Dlfw.Ctx.destroy ctx;
  (json, report, health, fs)

let test_fault_injection_deterministic () =
  let j1, r1, h1, fs1 = fault_run 0x5EEDL in
  let j2, r2, h2, fs2 = fault_run 0x5EEDL in
  check_bool "event stream byte-identical" true (String.equal j1 j2);
  check_bool "tool report byte-identical" true (String.equal r1 r2);
  check_bool "health report byte-identical" true (String.equal h1 h2);
  (match (fs1, fs2) with
  | Some a, Some b ->
      check_int "same dropped" a.Gpusim.Faults.dropped_events
        b.Gpusim.Faults.dropped_events;
      check_int "same duplicated" a.Gpusim.Faults.duplicated_events
        b.Gpusim.Faults.duplicated_events;
      check_int "same corrupted" a.Gpusim.Faults.corrupted_accesses
        b.Gpusim.Faults.corrupted_accesses;
      check_int "same ecc" a.Gpusim.Faults.ecc_errors b.Gpusim.Faults.ecc_errors;
      check_bool "faults actually fired" true
        (a.Gpusim.Faults.dropped_events + a.Gpusim.Faults.duplicated_events
         + a.Gpusim.Faults.ecc_errors
         > 0)
  | _ -> Alcotest.fail "fault stats missing from health report")

let test_fault_seed_matters () =
  let j1, _, _, _ = fault_run 0x5EEDL in
  let j2, _, _, _ = fault_run 0xACE1L in
  check_bool "different seeds, different streams" false (String.equal j1 j2)

let test_stuck_kernel_trips_watchdog () =
  (* Force the stuck-kernel fault on every launch; the session watchdog
     must flag them without the run failing. *)
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let rates =
    {
      Gpusim.Faults.stuck_kernel = 1.0;
      drop_event = 0.0;
      duplicate_event = 0.0;
      corrupt_access = 0.0;
      ecc_per_kernel = 0.0;
    }
  in
  let faults = Gpusim.Faults.create ~rates ~seed:7L () in
  (* A tiny kernel x10000 is still short; lower the limit so the trip is
     about detection, not about waiting out a real hour-long hang. *)
  Pasta.Config.set "ACCEL_PROF_WATCHDOG_US" "10.0";
  Fun.protect ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_WATCHDOG_US")
  @@ fun () ->
  let (), result =
    Pasta.Session.run ~faults ~tool:(Pasta.Tool.default "quiet") device
      (fun () ->
        let x = Dlfw.Ops.new_tensor ctx [ 256; 256 ] Dlfw.Dtype.F32 in
        let y = Dlfw.Ops.relu ctx x in
        Dlfw.Tensor.release x;
        Dlfw.Tensor.release y)
  in
  let h = result.Pasta.Session.health in
  check_bool "watchdog tripped" true (h.Pasta.Session.watchdog_trips <> []);
  (match h.Pasta.Session.fault_stats with
  | Some fs -> check_bool "stuck kernels counted" true (fs.Gpusim.Faults.stuck_kernels >= 1)
  | None -> Alcotest.fail "fault stats missing");
  Dlfw.Ctx.destroy ctx

let test_faults_cleared_after_session () =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let faults = Gpusim.Faults.create ~seed:1L () in
  let (), _ =
    Pasta.Session.run ~faults ~tool:(Pasta.Tool.default "quiet") device
      (fun () -> ())
  in
  check_bool "injector removed at detach" true
    (Gpusim.Device.faults device = None)

let suite =
  [
    ("raising tool is quarantined, workload survives", `Quick,
     test_raising_tool_quarantined);
    ("broken tool does not perturb the workload", `Quick,
     test_raising_tool_matches_clean_run);
    ("guard half-open probe reinstates", `Quick, test_guard_half_open_reinstates);
    ("drop-oldest: exact counts", `Quick, test_drop_oldest_counts);
    ("drop-newest: exact counts", `Quick, test_drop_newest_counts);
    ("block policy is lossless", `Quick, test_block_is_lossless);
    ("fault injection deterministic under fixed seed", `Quick,
     test_fault_injection_deterministic);
    ("fault seed changes the stream", `Quick, test_fault_seed_matters);
    ("stuck kernel trips the watchdog", `Quick, test_stuck_kernel_trips_watchdog);
    ("injector cleared after session", `Quick, test_faults_cleared_after_session);
    ("unknown overflow policy is refused", `Quick, test_overflow_policy_knob);
    ("non-positive or junk buffer cap is refused", `Quick, test_buffer_cap_knob);
    ("non-positive or junk guard knobs are refused", `Quick, test_guard_knobs);
    ("junk or out-of-range trace chunk size is refused", `Quick, test_trace_chunk_knob);
    ("junk pool size or watchdog limit is refused", `Quick, test_domains_watchdog_knobs);
  ]
