(* Self-telemetry: span-stack invariants under arbitrary begin/end
   sequences, exporter well-formedness (Chrome trace JSON, Prometheus
   text exposition), exact self-time attribution (rows sum to the window),
   deterministic metric counts across live vs replay, and quarantine-time
   attribution for a raising tool. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

module T = Pasta.Telemetry

(* Drive the level through the config knob, not {!T.set_level}: sessions
   call [refresh_level] on attach, which re-reads the knob and would
   silently undo a bare set_level. *)
let with_level name f =
  Pasta.Config.set "ACCEL_PROF_TELEMETRY" name;
  T.refresh_level ();
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      Pasta.Config.unset "ACCEL_PROF_TELEMETRY";
      T.refresh_level ())
    f

(* The count of an attribution row: completed spans for a layer, guarded
   callbacks run for a ["tool:<name>"] row; 0 when the row is absent. *)
let row_count label =
  match List.find_opt (fun r -> r.T.row_label = label) (T.attribution ()).T.at_rows with
  | Some r -> r.T.row_count
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Span-stack discipline (qcheck)                                      *)
(* ------------------------------------------------------------------ *)

let cats = [| T.Handler; T.Dispatch; T.Ring; T.Devagg |]

(* Two tool slots; a [Batch] drives the slot's guard the way per-record
   delivery does: one frame, [n] counted callbacks inside it. *)
let tool_names = [| "prop_tool_a"; "prop_tool_b" |]

type op =
  | Begin of int
  | End of int
  | Begin_tool of int
  | End_tool of int
  | Batch of int * int

let g_op =
  let cat = QCheck.Gen.int_range 0 (Array.length cats - 1) in
  let slot = QCheck.Gen.int_range 0 (Array.length tool_names - 1) in
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Begin i) cat);
        (3, map (fun i -> End i) cat);
        (1, map (fun s -> Begin_tool s) slot);
        (1, map (fun s -> End_tool s) slot);
        (1, map2 (fun s n -> Batch (s, n)) slot (int_range 0 5));
      ])

let g_ops = QCheck.Gen.(list_size (int_range 0 200) g_op)

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Begin i -> Printf.sprintf "B%d" i
         | End i -> Printf.sprintf "E%d" i
         | Begin_tool s -> Printf.sprintf "BT%d" s
         | End_tool s -> Printf.sprintf "ET%d" s
         | Batch (s, n) -> Printf.sprintf "F%d*%d" s n)
       ops)

(* Reference model of the stack discipline: a bounded stack of frame
   codes (category [i], tool slot [s] as [-1 - s]) with a skip counter
   past the capacity and a mismatch counter for unbalanced or mislabeled
   ends.  Callbacks are counted per slot whatever the stack holds.
   Mirrors telemetry.ml exactly. *)
let model_apply ops =
  let cap = 64 in
  let stack = ref [] and depth = ref 0 and skipped = ref 0 in
  let mismatches = ref 0 in
  let calls = Array.make (Array.length tool_names) 0 in
  let push code =
    if !skipped > 0 || !depth >= cap then incr skipped
    else begin
      stack := code :: !stack;
      incr depth
    end
  in
  let pop code =
    if !skipped > 0 then decr skipped
    else if !depth = 0 then incr mismatches
    else begin
      let top = List.hd !stack in
      stack := List.tl !stack;
      decr depth;
      if top <> code then incr mismatches
    end
  in
  List.iter
    (function
      | Begin i -> push i
      | End i -> pop i
      | Begin_tool s -> push (-1 - s)
      | End_tool s -> pop (-1 - s)
      | Batch (s, n) ->
          push (-1 - s);
          calls.(s) <- calls.(s) + n;
          pop (-1 - s))
    ops;
  (!depth + !skipped, !mismatches, calls)

let prop_span_stack =
  QCheck.Test.make ~count:300
    ~name:"span stack: depth and mismatches match the reference model"
    (QCheck.make ~print:print_ops g_ops)
    (fun ops ->
      with_level "full" (fun () ->
          let guards =
            Array.map
              (fun name ->
                Pasta.Guard.create
                  ~on_trip:(fun ~failures:_ -> ())
                  (Pasta.Tool.default name))
              tool_names
          in
          let slots = Array.map T.tool_slot tool_names in
          List.iter
            (function
              | Begin i -> T.begin_span cats.(i) "prop"
              | End i -> T.end_span cats.(i)
              | Begin_tool s -> T.begin_tool slots.(s)
              | End_tool s -> T.end_tool slots.(s)
              | Batch (s, n) ->
                  let g = guards.(s) in
                  Pasta.Guard.framed g (fun () ->
                      for _ = 1 to n do
                        Pasta.Guard.call_in_frame g Pasta.Guard.On_access
                          (fun _ () () -> ())
                          () ()
                      done))
            ops;
          let depth, mismatches, calls = model_apply ops in
          T.depth () = depth
          && T.mismatches () = mismatches
          && Array.for_all2 (fun name n -> row_count ("tool:" ^ name) = n) tool_names calls))

let prop_balanced_no_mismatch =
  QCheck.Test.make ~count:200
    ~name:"well-nested sequences leave an empty stack and no mismatches"
    QCheck.(make ~print:Print.(list int) Gen.(list_size (int_range 0 40) (int_range 0 3)))
    (fun is ->
      with_level "full" (fun () ->
          (* Open in order, close in reverse: always well-nested. *)
          List.iter (fun i -> T.begin_span cats.(i) "nest") is;
          List.iter (fun i -> T.end_span cats.(i)) (List.rev is);
          T.depth () = 0 && T.mismatches () = 0))

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser (validation only)                               *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some 'n' | Some 't' | Some 'r' | Some 'b' | Some 'f' ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some ('-' | '0' .. '9') -> J_num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Workload drivers                                                    *)
(* ------------------------------------------------------------------ *)

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One live BERT run under fine-grained parallel hotness, optionally
   recording a trace; telemetry state is NOT reset here so callers
   control the window. *)
let live_run ?capture ~domains () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let hot = Pasta_tools.Hotness.create () in
  let (), result =
    Pasta.Session.run ~sample_cap:256 ?capture
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  result

let temp_file ext = Filename.temp_file "pasta_telemetry" ext

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

let test_rows_sum_to_total () =
  with_level "basic" (fun () ->
      let (_ : Pasta.Session.result) = live_run ~domains:1 () in
      let a = T.attribution () in
      let sum =
        List.fold_left (fun acc r -> acc +. r.T.row_self_us) 0.0 a.T.at_rows
      in
      check_bool "window is non-trivial" true (a.T.at_total_us > 0.0);
      let err = abs_float (sum -. a.T.at_total_us) /. a.T.at_total_us in
      if err > 0.01 then
        Alcotest.failf "rows sum %.1fus vs total %.1fus (%.3f%% off)" sum
          a.T.at_total_us (100.0 *. err);
      check_bool "has a handler row" true
        (List.exists (fun r -> r.T.row_label = "handler (vendor adapt)") a.T.at_rows);
      check_bool "has a processor row" true
        (List.exists
           (fun r -> r.T.row_label = "processor (dispatch)" && r.T.row_count > 0)
           a.T.at_rows);
      check_bool "has the tool row" true
        (List.exists
           (fun r -> r.T.row_label = "tool:hotness_fine" && r.T.row_count > 0)
           a.T.at_rows);
      check_int "stack drained" 0 (T.depth ());
      check_int "no mismatches" 0 (T.mismatches ()))

(* The report renders on its own row, not the tool's: the row appears
   only once the report has rendered, with nonzero self time and one
   span, while the tool row still counts the report as one call. *)
let test_report_row () =
  with_level "basic" (fun () ->
      let result = live_run ~domains:1 () in
      let report_row () =
        List.find_opt
          (fun r -> r.T.row_label = "report (tool output)")
          (T.attribution ()).T.at_rows
      in
      check_bool "no report row before rendering" true (report_row () = None);
      let calls = row_count "tool:hotness_fine" in
      let (_ : string) = Format.asprintf "%t" result.Pasta.Session.report in
      (match report_row () with
      | None -> Alcotest.fail "no report row after rendering"
      | Some r ->
          check_bool "report row has self time" true (r.T.row_self_us > 0.0);
          check_int "one report span" 1 r.T.row_count);
      check_int "the report counts as a tool call" (calls + 1)
        (row_count "tool:hotness_fine");
      check_int "stack drained" 0 (T.depth ()))

let test_off_is_inert () =
  with_level "off" (fun () ->
      let (_ : Pasta.Session.result) = live_run ~domains:1 () in
      let a = T.attribution () in
      List.iter
        (fun r ->
          if r.T.row_label <> "simulate + workload" then
            Alcotest.failf "level off attributed %s" r.T.row_label)
        a.T.at_rows;
      check_int "no spans recorded" 0 (T.spans_recorded ()))

(* The Basic level is documented as allocation-free: begin/end pairs must
   leave the minor heap alone, for layer spans and tool spans alike. *)
let test_basic_spans_allocate_nothing () =
  with_level "basic" (fun () ->
      let slot = T.tool_slot "alloc_probe" in
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        T.begin_span T.Handler "alloc.probe";
        T.end_span T.Handler;
        T.begin_tool slot;
        T.end_tool slot
      done;
      let words = Gc.minor_words () -. before in
      if words >= 100.0 then
        Alcotest.failf "20000 Basic span pairs allocated %.0f minor words" words;
      check_int "stack drained" 0 (T.depth ());
      check_int "no mismatches" 0 (T.mismatches ()))

(* One BERT run, at sample cap 256, of the NVBit-CPU memory_charact tool
   as [wrap] rewires it.  Telemetry state is NOT reset here. *)
let nvbit_memory_charact_run wrap =
  let base = Pasta_tools.Memory_charact.(tool (create ~variant:Cpu_nvbit ())) in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let (), r =
    Pasta.Session.run ~sample_cap:256 ~tool:(wrap base) device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  r

(* Span counts are deterministic, so they guard the NVBit-CPU path's
   framework cost without timing noise: records cross the handler,
   processor and ring as flushed views, handed over once per kernel, and
   the tool's per-record callbacks run inside one tool frame per drain of
   the ring.  At [full] the recorded spans show the hand-offs and the
   frames directly. *)
let test_nvbit_layers_span_per_batch () =
  List.iter
    (fun level ->
      with_level level (fun () ->
          let records = ref 0 in
          let r =
            nvbit_memory_charact_run (fun base ->
                {
                  base with
                  Pasta.Tool.on_access =
                    (fun info a ->
                      incr records;
                      base.Pasta.Tool.on_access info a);
                })
          in
          check_bool "records flowed" true (!records > 1000);
          List.iter
            (fun label ->
              let spans = row_count label in
              if 4 * spans >= !records then
                Alcotest.failf "%s: %s opened %d spans for %d records" level label
                  spans !records)
            [ "handler (vendor adapt)"; "processor (dispatch)"; "ring buffer" ];
          (* One call per record, through [on_access]; the rest are the
             coarse events' calls. *)
          let calls = row_count "tool:memory_charact" in
          check_bool "tool called once per record, plus its coarse events" true
            (calls >= !records && calls < 2 * !records);
          if level = "full" then begin
            let buf = T.span_buffer () in
            check_int "span store kept every span" 0 (Pasta_util.Span_buf.dropped buf);
            let frames = ref 0 and handoffs = ref 0 in
            Pasta_util.Span_buf.iter buf (fun sp ->
                if sp.Pasta_util.Span_buf.sp_cat = "tool" then incr frames;
                if sp.Pasta_util.Span_buf.sp_name = "handler.pieces" then incr handoffs);
            if 4 * !frames >= !records then
              Alcotest.failf "the tool opened %d frames for %d records" !frames
                !records;
            check_bool "records were handed over" true (!handoffs > 0);
            if !handoffs > r.Pasta.Session.kernels then
              Alcotest.failf "%d NVBit hand-offs for %d kernels" !handoffs
                r.Pasta.Session.kernels
          end))
    [ "basic"; "full" ]

(* The CS-CPU host analysis of a BERT run at sample cap 16384 flushes
   after almost every batch; the host takes a kernel's flushes at once,
   at its exit, and replay re-drives each kernel's run of recorded
   batches as one hand-off.  At [full], live and replayed, that is at
   most one "handler.pieces" and one "proc.submit_pieces" span per kernel,
   and the columnar tool reads every delivered batch inside far fewer
   frames than there are batches. *)
let test_cs_cpu_handoff_per_kernel () =
  let spans () =
    let buf = T.span_buffer () in
    check_int "span store kept every span" 0 (Pasta_util.Span_buf.dropped buf);
    let count = Hashtbl.create 8 in
    Pasta_util.Span_buf.iter buf (fun sp ->
        let key =
          if sp.Pasta_util.Span_buf.sp_cat = "tool" then "tool frame"
          else sp.Pasta_util.Span_buf.sp_name
        in
        Hashtbl.replace count key (1 + Option.value ~default:0 (Hashtbl.find_opt count key)));
    fun key -> Option.value ~default:0 (Hashtbl.find_opt count key)
  in
  let check_run what ~kernels ~batches ~handler_views count =
    List.iter
      (fun (name, want) ->
        if count name > want then
          Alcotest.failf "%s: %d %s spans for %d kernels" what (count name) name kernels)
      [ ("handler.pieces", handler_views); ("proc.submit_pieces", kernels) ];
    check_bool (what ^ ": batches were handed over") true (count "proc.submit_pieces" > 0);
    if 3 * count "tool frame" >= batches then
      Alcotest.failf "%s: the tool opened %d frames for %d batches" what
        (count "tool frame") batches
  in
  let tool () = Pasta_tools.Memory_charact.(tool (create ~variant:Cpu_sanitizer ())) in
  let path = temp_file ".ptrace" in
  with_level "full" (fun () ->
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let (), r =
        Pasta.Session.run ~sample_cap:16384 ~capture:path ~tool:(tool ()) device (fun () ->
            let m = Dlfw.Runner.build ctx "BERT" in
            Dlfw.Runner.run ctx m ~mode:Dlfw.Runner.Inference ~iters:1)
      in
      Dlfw.Ctx.destroy ctx;
      let kernels = r.Pasta.Session.kernels in
      let batches = r.Pasta.Session.health.Pasta.Session.batches_delivered in
      check_bool "records came in many batches per kernel" true (batches > 10 * kernels);
      check_run "live" ~kernels ~batches ~handler_views:kernels (spans ());
      T.reset ();
      let o = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool:(tool ()) path in
      Sys.remove path;
      let replayed =
        List.fold_left
          (fun acc (n, _, v) -> if n = "pasta_batches_delivered" then acc + v else acc)
          0
          (let _, p, _ = List.hd o.Pasta.Replay.backends in
           Pasta_util.Metric.counter_samples (Pasta.Processor.metrics p))
      in
      check_int "replay delivered every batch" batches replayed;
      check_run "replayed" ~kernels ~batches ~handler_views:0 (spans ()))

(* The per-record path's allocation ceiling.  A record delivered to an
   NVBit-CPU tool allocates its [mem_access]; generation, channel views,
   the ring and the tool frames cost per chunk, per flush or per kernel.
   Over a whole BERT inference at sample cap 2048 on one domain the
   process then allocates under 17 minor words per delivered record. *)
let test_nvbit_minor_words_per_record () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" "1";
  Fun.protect
    ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_DOMAINS")
    (fun () ->
      let base = Pasta_tools.Memory_charact.(tool (create ~variant:Cpu_nvbit ())) in
      let records = ref 0 in
      let tool =
        {
          base with
          Pasta.Tool.on_access =
            (fun info a ->
              incr records;
              base.Pasta.Tool.on_access info a);
        }
      in
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let model = Dlfw.Runner.build ctx "BERT" in
      let before = Gc.minor_words () in
      let (), _ =
        Pasta.Session.run ~sample_cap:2048 ~tool device (fun () ->
            Dlfw.Runner.run ctx model ~mode:Dlfw.Runner.Inference ~iters:1)
      in
      let words = Gc.minor_words () -. before in
      Dlfw.Ctx.destroy ctx;
      check_bool "records flowed" true (!records > 100_000);
      let per_record = words /. float_of_int !records in
      if per_record > 17.0 then
        Alcotest.failf "%.1f minor words per delivered record (%d records)" per_record
          !records)

(* The breaker on the per-record path: an NVBit-CPU tool whose on_event
   and on_access raise on a fixed schedule trips, sits out its cooldown
   and is reinstated many times over one BERT run.  Everything the run
   reports about that is deterministic, so it is pinned exactly, at both
   span-recording levels.  Records reach [on_access] only: [on_event]
   gets the run's 218 coarse events, too few for its every-307th
   failure, so every failure the pin counts is [on_access]'s. *)
let scheduled_failures_run level =
  with_level level (fun () ->
      Pasta.Config.set "ACCEL_PROF_GUARD_THRESHOLD" "5";
      Pasta.Config.set "ACCEL_PROF_GUARD_COOLDOWN_KERNELS" "3";
      Fun.protect
        ~finally:(fun () ->
          Pasta.Config.unset "ACCEL_PROF_GUARD_THRESHOLD";
          Pasta.Config.unset "ACCEL_PROF_GUARD_COOLDOWN_KERNELS")
        (fun () ->
          let events = ref 0 and accesses = ref 0 in
          let every n counter =
            incr counter;
            if !counter mod n = 0 then failwith "scheduled failure"
          in
          let r =
            nvbit_memory_charact_run (fun base ->
                {
                  base with
                  Pasta.Tool.on_event =
                    (fun ev ->
                      every 307 events;
                      base.Pasta.Tool.on_event ev);
                  on_access =
                    (fun info a ->
                      every 211 accesses;
                      base.Pasta.Tool.on_access info a);
                })
          in
          let report = Format.asprintf "%t" r.Pasta.Session.report in
          let h = r.Pasta.Session.health in
          Printf.sprintf
            "md5=%s dispatched=%d suppressed=%d failures=[%s] quarantines=%d \
             reinstated=%d tool_calls=%d depth=%d mismatches=%d"
            (Digest.to_hex (Digest.string report))
            r.Pasta.Session.events_dispatched h.Pasta.Session.events_suppressed
            (String.concat ";"
               (List.map
                  (fun (cb, n) -> Printf.sprintf "%s:%d" cb n)
                  h.Pasta.Session.failures_by_callback))
            h.Pasta.Session.quarantines h.Pasta.Session.reinstated
            (row_count "tool:memory_charact")
            (T.depth ()) (T.mismatches ())))

let test_per_record_breaker_pinned () =
  let pinned =
    "md5=4a70c7e9bfee8d6205cb059d5bfc995c dispatched=8257 suppressed=12964 \
     failures=[on_access:38] quarantines=7 reinstated=7 tool_calls=8355 depth=0 \
     mismatches=0"
  in
  List.iter
    (fun level ->
      check_string
        (Printf.sprintf "per-record breaker accounting at %s" level)
        pinned (scheduled_failures_run level))
    [ "basic"; "full" ]

(* A tool whose kernel-begin callback burns visible wall time and then
   raises: the guard must still charge that time to the tool, and the
   span stack must stay balanced through the exception path. *)
let test_quarantined_tool_attributed () =
  with_level "basic" (fun () ->
      Pasta.Config.set "ACCEL_PROF_GUARD_THRESHOLD" "2";
      let spin_us = 200.0 in
      let spin () =
        let t0 = Unix.gettimeofday () in
        while (Unix.gettimeofday () -. t0) *. 1e6 < spin_us do
          ()
        done
      in
      let crashy =
        {
          (Pasta.Tool.default "crashy") with
          Pasta.Tool.on_kernel_begin =
            (fun _ ->
              spin ();
              failwith "boom");
        }
      in
      let proc = Pasta.Processor.create ~device:0 () in
      Pasta.Processor.set_tool proc crashy;
      let info grid_id =
        {
          Pasta.Event.device_id = 0;
          grid_id;
          stream = 0;
          name = "k";
          grid = Gpusim.Dim3.make 1;
          block = Gpusim.Dim3.make 32;
          shared_bytes = 0;
          arg_ptrs = [];
          py_stack = [];
          native_stack = [];
        }
      in
      for g = 1 to 4 do
        Pasta.Processor.submit proc
          ~time_us:(float_of_int g)
          (Pasta.Event.Kernel_launch { info = info g; phase = `Begin })
      done;
      check_bool "tool failed at least twice" true
        (Proc_counter.get proc "pasta_tool_failures" >= 2);
      check_string "tool is quarantined" "quarantined"
        (match Pasta.Processor.guard proc with
        | Some g -> Pasta.Guard.state_name (Pasta.Guard.state g)
        | None -> "<none>");
      let a = T.attribution () in
      let tool_row =
        List.find_opt (fun r -> r.T.row_label = "tool:crashy") a.T.at_rows
      in
      (match tool_row with
      | None -> Alcotest.fail "no tool:crashy attribution row"
      | Some r ->
          check_bool "raising callbacks charged to the tool" true
            (r.T.row_self_us >= 2.0 *. spin_us *. 0.5);
          check_bool "calls counted" true (r.T.row_count >= 2));
      check_int "stack balanced through exceptions" 0 (T.depth ());
      check_int "no span mismatches" 0 (T.mismatches ());
      Pasta.Config.unset "ACCEL_PROF_GUARD_THRESHOLD")

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_parses () =
  with_level "full" (fun () ->
      let (_ : Pasta.Session.result) = live_run ~domains:1 () in
      check_bool "spans were recorded" true (T.spans_recorded () > 0);
      let path = temp_file ".json" in
      T.write_chrome_trace path;
      let j = parse_json (read_file path) in
      Sys.remove path;
      match j with
      | J_obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (J_arr evs) ->
              check_bool "trace has events" true (List.length evs > 0);
              let phases = Hashtbl.create 4 in
              List.iter
                (fun ev ->
                  match ev with
                  | J_obj f ->
                      (match List.assoc_opt "ph" f with
                      | Some (J_str ph) -> Hashtbl.replace phases ph ()
                      | _ -> Alcotest.fail "event without ph");
                      (match List.assoc_opt "name" f with
                      | Some (J_str _) -> ()
                      | _ -> Alcotest.fail "event without name");
                      (* Duration events must carry both clock domains. *)
                      if List.assoc_opt "ph" f = Some (J_str "X") then begin
                        (match List.assoc_opt "dur" f with
                        | Some (J_num d) ->
                            check_bool "dur >= 0" true (d >= 0.0)
                        | _ -> Alcotest.fail "X event without dur");
                        match List.assoc_opt "args" f with
                        | Some (J_obj args) ->
                            check_bool "sim_t0_us arg" true
                              (List.mem_assoc "sim_t0_us" args);
                            check_bool "sim_t1_us arg" true
                              (List.mem_assoc "sim_t1_us" args)
                        | _ -> Alcotest.fail "X event without args"
                      end
                  | _ -> Alcotest.fail "non-object event")
                evs;
              check_bool "has X span events" true (Hashtbl.mem phases "X");
              check_bool "has M metadata events" true (Hashtbl.mem phases "M")
          | _ -> Alcotest.fail "no traceEvents array")
      | _ -> Alcotest.fail "top level is not an object")

let test_merged_trace_parses () =
  with_level "full" (fun () ->
      Pasta.Config.set "ACCEL_PROF_DOMAINS" "1";
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      let tx = Pasta.Trace_export.create () in
      let (), (_ : Pasta.Session.result) =
        Pasta.Session.run
          ~tool:(Pasta.Trace_export.tool tx)
          device
          (fun () ->
            let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
            Dlfw.Model.inference_iter ctx m)
      in
      Dlfw.Ctx.destroy ctx;
      Pasta.Config.unset "ACCEL_PROF_DOMAINS";
      let merged = Pasta.Trace_export.to_json ~extra:(T.chrome_events ()) tx in
      match parse_json merged with
      | J_obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (J_arr evs) ->
              (* Both process groups must be present: device pids from the
                 workload exporter, pid 1000 from telemetry. *)
              let pids = Hashtbl.create 4 in
              List.iter
                (function
                  | J_obj f -> (
                      match List.assoc_opt "pid" f with
                      | Some (J_num p) -> Hashtbl.replace pids (int_of_float p) ()
                      | _ -> ())
                  | _ -> ())
                evs;
              check_bool "telemetry pid present" true (Hashtbl.mem pids 1000);
              check_bool "a workload pid present" true
                (Hashtbl.fold (fun p _ acc -> acc || p <> 1000) pids false)
          | _ -> Alcotest.fail "no traceEvents array")
      | _ -> Alcotest.fail "merged trace is not an object")

(* ------------------------------------------------------------------ *)
(* Prometheus exposition grammar                                       *)
(* ------------------------------------------------------------------ *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let check_metric_name line what s =
  if s = "" || not (is_name_start s.[0]) || not (String.for_all is_name_char s)
  then Alcotest.failf "bad %s %S in line %S" what s line

(* One sample line: name{label="value",...} number *)
let check_sample_line line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  check_metric_name line "metric name" (String.sub line 0 !i);
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let rec labels () =
      let ls = !i in
      while !i < n && is_name_char line.[!i] do
        incr i
      done;
      check_metric_name line "label name" (String.sub line ls (!i - ls));
      if !i >= n || line.[!i] <> '=' then
        Alcotest.failf "missing = in labels of %S" line;
      incr i;
      if !i >= n || line.[!i] <> '"' then
        Alcotest.failf "unquoted label value in %S" line;
      incr i;
      let fin = ref false in
      while not !fin do
        if !i >= n then Alcotest.failf "unterminated label value in %S" line;
        (match line.[!i] with
        | '\\' -> incr i (* skip the escaped char below *)
        | '"' -> fin := true
        | _ -> ());
        incr i
      done;
      if !i < n && line.[!i] = ',' then begin
        incr i;
        labels ()
      end
      else if !i < n && line.[!i] = '}' then incr i
      else Alcotest.failf "expected , or } in %S" line
    in
    labels ()
  end;
  if !i >= n || line.[!i] <> ' ' then
    Alcotest.failf "expected space before value in %S" line;
  let v = String.sub line (!i + 1) (n - !i - 1) in
  match float_of_string_opt v with
  | Some _ -> ()
  | None -> Alcotest.failf "non-numeric sample value %S in %S" v line

let base_name s =
  let strip suf s =
    if String.length s > String.length suf
       && String.sub s (String.length s - String.length suf) (String.length suf)
          = suf
    then String.sub s 0 (String.length s - String.length suf)
    else s
  in
  strip "_sum" (strip "_count" s)

let test_prometheus_grammar () =
  with_level "full" (fun () ->
      let result = live_run ~domains:2 () in
      let body = T.prometheus ~extra:[ result.Pasta.Session.metrics ] () in
      check_bool "exposition is non-empty" true (String.length body > 0);
      let typed = Hashtbl.create 32 in
      let lines = String.split_on_char '\n' body in
      List.iter
        (fun line ->
          if line = "" then ()
          else if String.length line > 7 && String.sub line 0 7 = "# HELP " then ()
          else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
            let rest = String.sub line 7 (String.length line - 7) in
            match String.split_on_char ' ' rest with
            | [ name; kind ] ->
                check_metric_name line "typed name" name;
                if not (List.mem kind [ "counter"; "gauge"; "summary" ]) then
                  Alcotest.failf "unknown TYPE %S" kind;
                if Hashtbl.mem typed name then
                  Alcotest.failf "duplicate TYPE for %s" name;
                Hashtbl.add typed name ()
            | _ -> Alcotest.failf "malformed TYPE line %S" line
          end
          else if String.length line > 0 && line.[0] = '#' then
            Alcotest.failf "unknown comment line %S" line
          else begin
            check_sample_line line;
            (* every sample must appear under a preceding TYPE block *)
            let name =
              let i = ref 0 in
              while
                !i < String.length line
                && is_name_char line.[!i]
              do
                incr i
              done;
              String.sub line 0 !i
            in
            if not (Hashtbl.mem typed name || Hashtbl.mem typed (base_name name))
            then Alcotest.failf "sample %s before its TYPE" name
          end)
        lines;
      (* the pipeline counters made it into the merged exposition *)
      check_bool "pipeline counter exported" true
        (Hashtbl.mem typed "pasta_events_seen");
      check_bool "telemetry metric exported" true
        (Hashtbl.mem typed "pasta_tool_callback_us"))

(* ------------------------------------------------------------------ *)
(* Live vs replay: metric counts are deterministic                     *)
(* ------------------------------------------------------------------ *)

(* The deterministic subset: counters driven purely by the op stream.
   Capture/replay accounting legitimately differs between the two runs
   and is excluded. *)
let curated =
  [
    "pasta_events_seen";
    "pasta_events_dispatched";
    "pasta_events_suppressed";
    "pasta_kernels_seen";
    "pasta_summaries_flushed";
    "pasta_tool_failures";
    "pasta_records_dropped";
    "pasta_buffer_stalls";
    "pasta_accesses_filtered";
    "pasta_batches_delivered";
  ]

(* Pipeline counters now carry a ("device", id) label; summing across
   label sets keeps the comparison independent of the device ids the two
   runs happened to draw. *)
let snapshot reg =
  let samples = Pasta_util.Metric.counter_samples reg in
  List.map
    (fun name ->
      ( name,
        List.fold_left
          (fun acc (n, _, v) -> if n = name then acc + v else acc)
          0 samples ))
    curated

let test_replay_metric_counts domains () =
  with_level "basic" (fun () ->
      let path = temp_file ".ptrace" in
      let result = live_run ~capture:path ~domains () in
      let live = snapshot result.Pasta.Session.metrics in
      let hot = Pasta_tools.Hotness.create () in
      let o =
        Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
          ~tool:(Pasta_tools.Hotness.tool_fine hot)
          path
      in
      Sys.remove path;
      let _, p, _ = List.hd o.Pasta.Replay.backends in
      let replayed = snapshot (Pasta.Processor.metrics p) in
      List.iter2
        (fun (name, lv) (_, rv) ->
          check_int (Printf.sprintf "%s live = replay (%d domains)" name domains)
            lv rv)
        live replayed;
      check_bool "events actually flowed" true
        (List.assoc "pasta_events_seen" live > 0))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "attribution rows sum to the window" `Quick
      test_rows_sum_to_total;
    Alcotest.test_case "the report renders on its own row" `Quick test_report_row;
    Alcotest.test_case "level off attributes nothing" `Quick test_off_is_inert;
    Alcotest.test_case "basic spans allocate nothing" `Quick
      test_basic_spans_allocate_nothing;
    Alcotest.test_case "NVBit records cross the layers per batch" `Quick
      test_nvbit_layers_span_per_batch;
    Alcotest.test_case "CS-CPU hand-offs span once per kernel" `Quick
      test_cs_cpu_handoff_per_kernel;
    Alcotest.test_case "quarantined tool time is attributed" `Quick
      test_quarantined_tool_attributed;
    qtest prop_span_stack;
    qtest prop_balanced_no_mismatch;
    Alcotest.test_case "chrome trace parses as JSON" `Quick
      test_chrome_trace_parses;
    Alcotest.test_case "merged workload+telemetry trace parses" `Quick
      test_merged_trace_parses;
    Alcotest.test_case "prometheus exposition grammar" `Quick
      test_prometheus_grammar;
    Alcotest.test_case "live vs replay metric counts, 1 domain" `Quick
      (test_replay_metric_counts 1);
    Alcotest.test_case "live vs replay metric counts, 4 domains" `Quick
      (test_replay_metric_counts 4);
    Alcotest.test_case "per-record breaker accounting is pinned" `Quick
      test_per_record_breaker_pinned;
    Alcotest.test_case "NVBit records allocate under 17 words each" `Quick
      test_nvbit_minor_words_per_record;
  ]
