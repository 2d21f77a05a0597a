(* The serve daemon: protocol codec properties, tenant isolation
   (concurrent results byte-identical to solo runs, fault/quarantine
   containment), scheduling/admission control, and the cancellation and
   deadline paths. *)

module Serve = Pasta.Serve
module Proto = Pasta.Serve.Proto
module Njson = Pasta_util.Njson

let qtest = QCheck_alcotest.to_alcotest

(* --- protocol round-trip ----------------------------------------------- *)

let gen_request =
  QCheck.Gen.(
    let str = string_size (int_range 0 12) in
    let opt g = option g in
    let submit =
      let* tenant = str in
      let* model = str in
      let* tool = opt str in
      let* train = bool in
      let* iters = opt (int_range 1 1000) in
      let* gpu = str in
      let* knobs = list_size (int_range 0 4) (pair str str) in
      let* deadline_us = opt (float_range 0.5 1e9) in
      let* trace = opt str in
      return
        (Proto.Submit
           { Proto.tenant; model; tool; train; iters; gpu; knobs; deadline_us; trace })
    in
    oneof
      [
        submit;
        map (fun id -> Proto.Status id) nat;
        map (fun id -> Proto.Cancel id) nat;
        map (fun id -> Proto.Result id) nat;
        return Proto.Health;
        return Proto.Shutdown;
      ])

let arb_request =
  QCheck.make gen_request ~print:(fun r ->
      Njson.to_string (Proto.request_to_json r))

(* Duplicate knob keys survive encoding only if the JSON object keeps
   duplicate members; the decoder takes the assoc list as-is, so the
   round trip is exact either way — but keep generated keys distinct to
   state the property over well-formed objects. *)
let dedup_knobs = function
  | Proto.Submit s ->
      let seen = Hashtbl.create 8 in
      let knobs =
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          s.Proto.knobs
      in
      Proto.Submit { s with Proto.knobs }
  | r -> r

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request -> json -> request is the identity" ~count:500
    arb_request (fun r ->
      let r = dedup_knobs r in
      Proto.request_of_json (Proto.request_to_json r) = Ok r)

let prop_request_wire_roundtrip =
  QCheck.Test.make ~name:"request survives the NDJSON wire encoding" ~count:500
    arb_request (fun r ->
      let r = dedup_knobs r in
      let line = Njson.to_string (Proto.request_to_json r) in
      (not (String.contains line '\n'))
      && Proto.request_of_json (Njson.of_string line) = Ok r)

(* Out-of-range numbers and present-but-ill-typed optional fields are
   typed errors: an id of 2^63 used to decode as 0, 2^62 as -2^62, and a
   deadline of 1e999 as infinity, which re-encodes as null. *)
let test_codec_typed_errors () =
  let decode line = Proto.request_of_json (Njson.of_string line) in
  let submit field = Printf.sprintf {|{"op":"submit","tenant":"t","model":"AN",%s}|} field in
  List.iter
    (fun line ->
      match decode line with
      | Error _ -> ()
      | Ok r ->
          Alcotest.failf "%s decoded as %s" line
            (Njson.to_string (Proto.request_to_json r)))
    [
      {|{"op":"status","id":9223372036854775807}|};
      {|{"op":"status","id":4611686018427387904}|};
      {|{"op":"cancel","id":4.611686018427387904e18}|};
      {|{"op":"result","id":1.5}|};
      submit {|"iters":1e300|};
      submit {|"iters":2.5|};
      submit {|"deadline_us":1e999|};
      submit {|"deadline_us":-1e999|};
      submit {|"tool":5|};
      submit {|"gpu":null|};
      submit {|"trace":["t.ptrace"]|};
      submit {|"mode":true|};
    ];
  let expect line want =
    if decode line <> Ok want then Alcotest.failf "%s must decode" line
  in
  expect {|{"op":"status","id":4611686018427387903}|} (Proto.Status max_int);
  expect {|{"op":"status","id":-4.611686018427387904e18}|} (Proto.Status min_int);
  expect {|{"op":"result","id":7.0}|} (Proto.Result 7)

(* 1-6 byte overwrites, insertions or truncations of valid request lines.
   Replacement bytes lean on the characters JSON gives meaning to, so the
   mutants reach the number, string and structure paths of the decoder. *)
let gen_mutated_line =
  QCheck.Gen.(
    let meaningful = {|0123456789eE.+-"\:,{}[] nultrfa|} in
    let byte =
      frequency
        [
          (3, map (String.get meaningful) (int_bound (String.length meaningful - 1)));
          (1, char);
        ]
    in
    let edit s =
      let n = String.length s in
      let* pos = int_bound (max 0 (n - 1)) in
      let* c = byte in
      frequency
        [
          (4, return (String.mapi (fun i d -> if i = pos then c else d) s));
          ( 4,
            return (String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos))
          );
          (1, return (String.sub s 0 pos));
        ]
    in
    let rec edits k s = if k = 0 || s = "" then return s else edit s >>= edits (k - 1) in
    let* r = gen_request in
    let* k = int_range 1 6 in
    edits k (Njson.to_string (Proto.request_to_json r)))

let prop_mutated_lines =
  QCheck.Test.make ~count:20000
    ~name:"mutated request lines decode to Ok or Error, and every Ok round-trips"
    (QCheck.make gen_mutated_line ~print:(Printf.sprintf "%S"))
    (fun line ->
      match Option.map Proto.request_of_json (Njson.of_string_opt line) with
      | None | Some (Error _) -> true
      | Some (Ok r) ->
          let line' = Njson.to_string (Proto.request_to_json r) in
          Proto.request_of_json (Njson.of_string line') = Ok r)

(* --- shared helpers ----------------------------------------------------- *)

let spec ?(tenant = "t") ?(model = "AN") ?tool ?(train = false) ?(iters = 1)
    ?(knobs = []) ?deadline_us ?trace () =
  {
    Proto.tenant;
    model;
    tool;
    train;
    iters = Some iters;
    gpu = "a100";
    knobs;
    deadline_us;
    trace;
  }

(* The in-process reference a served job must reproduce byte for byte:
   same overlay, fresh device, fresh ctx, same Session plumbing. *)
let solo (s : Proto.submit) =
  Pasta.Config.with_overlay s.Proto.knobs (fun () ->
      let tool =
        match Pasta.Registry.find (Option.get s.Proto.tool) with
        | Some mk -> mk ()
        | None -> Alcotest.failf "tool %s unregistered" (Option.get s.Proto.tool)
      in
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      Gpusim.Hostctx.clear ();
      Fun.protect
        ~finally:(fun () -> Dlfw.Ctx.destroy ctx)
        (fun () ->
          let mode =
            if s.Proto.train then Dlfw.Runner.Train else Dlfw.Runner.Inference
          in
          let (), res =
            Pasta.Session.run ~tool device (fun () ->
                let m = Dlfw.Runner.build ctx s.Proto.model in
                Dlfw.Runner.run ctx m ~mode ~iters:(Option.get s.Proto.iters))
          in
          ( Format.asprintf "%t" res.Pasta.Session.report,
            Pasta_util.Metric.counter_samples res.Pasta.Session.metrics )))

let completed = function
  | Some (Serve.Completed s) -> s
  | Some o -> Alcotest.failf "job finished %s" (Serve.outcome_name o)
  | None -> Alcotest.fail "job did not finish"

let submit_ok t s =
  match Serve.submit t s with
  | Ok id -> id
  | Error e -> Alcotest.failf "submit rejected: %s" e

(* --- tenant isolation --------------------------------------------------- *)

let test_concurrent_matches_solo () =
  Pasta_tools.Tools.register_all ();
  let specs =
    [
      spec ~tenant:"alpha" ~tool:"kernel_freq" ();
      spec ~tenant:"beta" ~model:"RN-18" ~tool:"op_summary" ();
      spec ~tenant:"gamma" ~tool:"hotness"
        ~knobs:[ ("ACCEL_PROF_SAMPLE_RATE", "0.5") ]
        ();
      spec ~tenant:"delta" ~tool:"kernel_freq"
        ~knobs:[ ("ACCEL_PROF_BUFFER_CAP", "64") ]
        ();
    ]
  in
  let expected = List.map solo specs in
  let t = Serve.create ~workers:4 () in
  let ids = List.map (submit_ok t) specs in
  let got =
    List.map (fun id -> completed (Serve.wait ~timeout_s:120.0 t id)) ids
  in
  Serve.shutdown t;
  List.iteri
    (fun i ((exp_report, exp_counters), (s : Serve.summary)) ->
      let tenant = (List.nth specs i).Proto.tenant in
      Alcotest.(check string)
        (tenant ^ ": report identical to solo run")
        exp_report s.Serve.report;
      Alcotest.(check bool)
        (tenant ^ ": counter samples identical to solo run")
        true
        (exp_counters = s.Serve.counters))
    (List.combine expected got)

(* Framework observers are process-global, and every served job's device
   has id 0, so the device id alone cannot tell tenants apart.  A
   deterministic form of the cross-feed: while a session is attached on
   this thread, a second thread runs AN on another id-0 device that has
   no session.  None of its framework events may reach the session. *)
let test_framework_events_stay_on_thread () =
  let run_an ctx =
    let m = Dlfw.Runner.build ctx "AN" in
    Dlfw.Runner.run ctx m ~mode:Dlfw.Runner.Inference ~iters:1
  in
  let counters ~intruder =
    let device = Gpusim.Device.create Gpusim.Arch.a100 in
    let ctx = Dlfw.Ctx.create device in
    let tool = Pasta_tools.Kernel_freq.tool (Pasta_tools.Kernel_freq.create ()) in
    let s = Pasta.Session.attach ~tool device in
    if intruder then
      Thread.join
        (Thread.create
           (fun () ->
             let other = Dlfw.Ctx.create (Gpusim.Device.create Gpusim.Arch.a100) in
             run_an other;
             Dlfw.Ctx.destroy other)
           ());
    run_an ctx;
    let r = Pasta.Session.detach s in
    Dlfw.Ctx.destroy ctx;
    Pasta_util.Metric.counter_samples r.Pasta.Session.metrics
  in
  let alone = counters ~intruder:false in
  Alcotest.(check bool)
    "counter samples unchanged by another thread's id-0 device" true
    (alone = counters ~intruder:true)

let test_quarantine_contained () =
  Pasta_tools.Tools.register_all ();
  (* A tool that fails on every kernel end: the victim tenant's guard
     quarantines it, while the clean tenant running concurrently must
     stay byte-identical to its solo run. *)
  Pasta.Registry.register "serve_test_bomb" (fun () ->
      {
        (Pasta.Tool.default "serve_test_bomb") with
        Pasta.Tool.on_kernel_end = (fun _ _ -> failwith "boom");
        report = (fun ppf -> Format.fprintf ppf "bomb report@.");
      });
  let clean = spec ~tenant:"clean" ~tool:"kernel_freq" () in
  let clean_expected = solo clean in
  let t = Serve.create ~workers:2 () in
  let faulty_id =
    submit_ok t
      (spec ~tenant:"faulty" ~tool:"serve_test_bomb"
         ~knobs:
           [
             ("ACCEL_PROF_INJECT_FAULTS", "1");
             ("ACCEL_PROF_FAULT_SEED", "24285");
           ]
         ())
  in
  let clean_id = submit_ok t clean in
  let faulty_sum = completed (Serve.wait ~timeout_s:120.0 t faulty_id) in
  let clean_sum = completed (Serve.wait ~timeout_s:120.0 t clean_id) in
  Serve.shutdown t;
  Alcotest.(check bool)
    "victim tenant's tool was quarantined" true
    (faulty_sum.Serve.quarantines > 0);
  Alcotest.(check int) "clean tenant saw no quarantines" 0 clean_sum.Serve.quarantines;
  Alcotest.(check string)
    "clean tenant byte-identical to its solo run" (fst clean_expected)
    clean_sum.Serve.report;
  Alcotest.(check bool)
    "clean tenant counters identical" true
    (snd clean_expected = clean_sum.Serve.counters)

(* --- admission control, cancellation, deadlines ------------------------- *)

let test_admission_and_cancel () =
  Pasta_tools.Tools.register_all ();
  let t = Serve.create ~workers:1 ~capacity:2 ~quota:1 () in
  (* Occupy the single worker long enough to exercise the queue, and wait
     until the job has actually been dequeued: until then it occupies the
     tenant's quota slot itself. *)
  let hog = submit_ok t (spec ~tenant:"hog" ~tool:"kernel_freq" ~iters:200 ()) in
  let rec wait_dequeued () =
    match Serve.status t hog with
    | Some (_, Serve.Queued) ->
        Thread.delay 0.005;
        wait_dequeued ()
    | _ -> ()
  in
  wait_dequeued ();
  let queued = submit_ok t (spec ~tenant:"hog" ~tool:"kernel_freq" ()) in
  (* Tenant over quota: one job already queued. *)
  (match Serve.submit t (spec ~tenant:"hog" ~tool:"kernel_freq" ()) with
  | Error e ->
      Alcotest.(check string) "quota reject" "rejected: tenant-quota" e
  | Ok _ -> Alcotest.fail "expected tenant-quota reject");
  (* Fill the remaining global slot, then overflow it. *)
  let filler = submit_ok t (spec ~tenant:"other" ~tool:"kernel_freq" ()) in
  (match Serve.submit t (spec ~tenant:"third" ~tool:"kernel_freq" ()) with
  | Error e ->
      Alcotest.(check string) "global capacity reject" "rejected: queue-full" e
  | Ok _ -> Alcotest.fail "expected queue-full reject");
  (* Cancel a queued job: it must come back immediately, finished
     Cancelled, without ever running. *)
  (match Serve.cancel t filler with
  | `Cancelled -> ()
  | _ -> Alcotest.fail "queued job should cancel immediately");
  Alcotest.(check bool)
    "cancelled queued job finished Cancelled" true
    (Serve.result t filler = Some Serve.Cancelled);
  (* Cancel the running job: the abort probe fires at the next kernel
     boundary. *)
  (match Serve.cancel t hog with
  | `Cancelled | `Cancel_requested -> ()
  | `Too_late | `Unknown -> Alcotest.fail "running job should accept cancel");
  (match Serve.wait ~timeout_s:120.0 t hog with
  | Some Serve.Cancelled -> ()
  | Some (Serve.Completed _) ->
      (* The job may legitimately win the race and finish first; the
         invariant is that it terminates and the queue keeps moving. *)
      ()
  | o ->
      Alcotest.failf "hog finished %s"
        (match o with Some o -> Serve.outcome_name o | None -> "never"));
  (* The queue must keep serving the surviving job. *)
  let s = completed (Serve.wait ~timeout_s:120.0 t queued) in
  Alcotest.(check bool) "surviving job produced a report" true (s.Serve.report <> "");
  (match Serve.cancel t queued with
  | `Too_late -> ()
  | _ -> Alcotest.fail "finished job must report too_late");
  Serve.shutdown t

let test_deadline () =
  Pasta_tools.Tools.register_all ();
  let t = Serve.create ~workers:1 () in
  let id =
    submit_ok t
      (spec ~tenant:"dl" ~tool:"kernel_freq" ~iters:50 ~deadline_us:50.0 ())
  in
  (match Serve.wait ~timeout_s:120.0 t id with
  | Some Serve.Deadline_exceeded -> ()
  | o ->
      Alcotest.failf "expected deadline, got %s"
        (match o with Some o -> Serve.outcome_name o | None -> "no result"));
  (match Serve.status t id with
  | Some ("dl", Serve.Done Serve.Deadline_exceeded) -> ()
  | _ -> Alcotest.fail "status must show the deadline outcome");
  Serve.shutdown t

let test_submit_validation () =
  Pasta_tools.Tools.register_all ();
  let t = Serve.create ~workers:1 () in
  let expect_error name s =
    match Serve.submit t s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_error "empty tenant" (spec ~tenant:"" ~tool:"kernel_freq" ());
  expect_error "unknown model" (spec ~model:"nope" ~tool:"kernel_freq" ());
  expect_error "process-global knob"
    (spec ~tool:"kernel_freq" ~knobs:[ ("ACCEL_PROF_TELEMETRY", "full") ] ());
  expect_error "unknown gpu"
    { (spec ~tool:"kernel_freq" ()) with Proto.gpu = "warp9" };
  List.iter
    (fun (knob, value) ->
      match
        Serve.submit t (spec ~tool:"kernel_freq" ~knobs:[ (knob, value) ] ())
      with
      | Error msg ->
          if not (Astring_contains.contains msg knob) then
            Alcotest.failf "the refusal of %s=%s does not name it: %s" knob value msg
      | Ok _ -> Alcotest.failf "%s=%s should be rejected" knob value)
    [
      ("ACCEL_PROF_OVERFLOW_POLICY", "drop-oldset");
      ("ACCEL_PROF_REGIONS", "sideways");
      ("ACCEL_PROF_BUFFER_CAP", "12x");
      ("ACCEL_PROF_BUFFER_CAP", "0");
      ("ACCEL_PROF_BUFFER_CAP", "-3");
      ("ACCEL_PROF_TRACE_CHUNK_KB", "12x");
      ("ACCEL_PROF_TRACE_CHUNK_KB", "0");
      ("ACCEL_PROF_TRACE_CHUNK_KB", "9007199254740992");
      ("ACCEL_PROF_TRACE_CHUNK_KB", "67108864");
      ("ACCEL_PROF_ENV_SAMPLE_RATE", "0");
      ("ACCEL_PROF_ENV_SAMPLE_RATE", "12x");
      (* retired knobs: no longer session-scoped, so refused by name *)
      ("ACCEL_PROF_COLUMNAR", "0");
      ("ACCEL_PROF_BATCH_DELIVERY", "0");
    ];
  (* A tool the job's default backend refuses, or one nobody registered,
     is refused at submit time with the CLI's reason. *)
  List.iter
    (fun (tool, gpu, needle) ->
      match Serve.submit t { (spec ~tool ()) with Proto.gpu } with
      | Error msg ->
          if not (Astring_contains.contains msg needle) then
            Alcotest.failf "the refusal of %s on %s does not say %S: %s" tool gpu needle msg
      | Ok _ -> Alcotest.failf "%s on %s should be rejected" tool gpu)
    [
      ("memory_charact_cs_cpu", "mi300x", "needs the Sanitizer backend");
      ("hotness", "tpu_v4", "TPUs expose no fine-grained instrumentation");
      ("no_such_tool", "a100", "unknown tool \"no_such_tool\"");
    ];
  Alcotest.(check bool) "no refused job was queued" true (Serve.status t 1 = None);
  Serve.shutdown t

(* --- socket endpoint ---------------------------------------------------- *)

let test_socket_smoke () =
  Pasta_tools.Tools.register_all ();
  match Serve.self_test () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "self-test: %s" msg

(* A client's Shutdown runs on a detached thread; [join] returns only once
   it has finished, socket file included.  A refused job is answered with
   code 1 (Exit_code.failure), not the admission code. *)
let test_shutdown_unlinks_socket () =
  Pasta_tools.Tools.register_all ();
  let path = Filename.temp_file "accelprof-shutdown" ".sock" in
  Sys.remove path;
  let addr = Serve.Unix_sock path in
  let t = Serve.create ~workers:1 () in
  Serve.listen t addr;
  let c = Serve.Client.connect addr in
  let refused =
    Serve.Client.request c
      (Proto.Submit { (spec ~tool:"memory_charact_cs_cpu" ()) with Proto.gpu = "mi300x" })
  in
  Alcotest.(check (option bool)) "refused" (Some false) (Njson.bool_field "ok" refused);
  Alcotest.(check (option int)) "validation code" (Some Pasta.Exit_code.failure)
    (Njson.int_field "code" refused);
  ignore (Serve.Client.request c Proto.Shutdown);
  Serve.Client.close c;
  Serve.join t;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* Everything the daemon sends on [fd] until it closes the connection,
   or [None] if it is still open after [timeout_s]. *)
let read_until_close ~timeout_s fd =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents b)
          | n ->
              Buffer.add_subbytes b chunk 0 n;
              go ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Some (Buffer.contents b))
  in
  go ()

(* Send [payload] on a fresh connection from another thread (the daemon
   may close before reading all of it) and collect what comes back. *)
let send_oversized path payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let writer =
    Thread.create
      (fun () ->
        try ignore (Unix.write_substring fd payload 0 (String.length payload))
        with Unix.Unix_error _ -> ())
      ()
  in
  let got = read_until_close ~timeout_s:10.0 fd in
  Thread.join writer;
  Unix.close fd;
  got

let test_line_cap () =
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let path = Filename.temp_file "accelprof-lines" ".sock" in
  Sys.remove path;
  let addr = Serve.Unix_sock path in
  let t = Serve.create ~workers:1 () in
  Serve.listen t addr;
  let huge = String.make (2 lsl 20) 'x' in
  (match send_oversized path (huge ^ "\n") with
  | None -> Alcotest.fail "NDJSON connection still open after an over-long line"
  | Some reply -> (
      match String.split_on_char '\n' reply with
      | [ line; "" ] -> (
          match Njson.of_string_opt line with
          | Some (Njson.Obj fields) ->
              Alcotest.(check bool) "one error reply" true
                (List.assoc_opt "ok" fields = Some (Njson.Bool false))
          | _ -> Alcotest.failf "reply is not a JSON object: %S" line)
      | _ -> Alcotest.failf "expected exactly one reply line, got %d bytes" (String.length reply)));
  (match send_oversized path ("GET /metrics HTTP/1.0\r\nX-Pad: " ^ huge ^ "\r\n\r\n") with
  | None -> Alcotest.fail "HTTP connection still open after an over-long header"
  | Some reply -> Alcotest.(check string) "no HTTP answer" "" reply);
  let c = Serve.Client.connect addr in
  (match Serve.Client.request c Proto.Health with
  | Njson.Obj fields ->
      Alcotest.(check bool) "daemon still serves" true
        (List.assoc_opt "ok" fields = Some (Njson.Bool true))
  | _ -> Alcotest.fail "health reply is not a JSON object");
  Serve.Client.close c;
  Serve.shutdown t;
  Sys.set_signal Sys.sigpipe old_sigpipe

let suite =
  [
    qtest prop_request_roundtrip;
    qtest prop_request_wire_roundtrip;
    Alcotest.test_case "N concurrent tenants == solo runs, byte for byte" `Slow
      test_concurrent_matches_solo;
    Alcotest.test_case "framework events stay on the attaching thread" `Quick
      test_framework_events_stay_on_thread;
    Alcotest.test_case "one tenant's quarantine leaves others untouched" `Slow
      test_quarantine_contained;
    Alcotest.test_case "admission control and cancellation" `Slow
      test_admission_and_cancel;
    Alcotest.test_case "deadline aborts at a kernel boundary" `Quick test_deadline;
    Alcotest.test_case "submit-time validation" `Quick test_submit_validation;
    Alcotest.test_case "socket + HTTP scrape smoke" `Slow test_socket_smoke;
    Alcotest.test_case "join returns after shutdown unlinks the socket" `Quick
      test_shutdown_unlinks_socket;
    Alcotest.test_case "out-of-range and ill-typed fields are typed errors" `Quick
      test_codec_typed_errors;
    qtest prop_mutated_lines;
    Alcotest.test_case "over-long request lines are refused" `Quick test_line_cap;
  ]
