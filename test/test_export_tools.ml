(* Operator-summary attribution and Chrome-trace export. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_model ctx = Dlfw.Gpt2.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx

let run_with tool f =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let (), result = Pasta.Session.run ~tool device (fun () -> f ctx) in
  Dlfw.Ctx.destroy ctx;
  result

(* ---- Op_summary ---- *)

let test_op_summary_attribution () =
  let s = Pasta_tools.Op_summary.create () in
  let result =
    run_with (Pasta_tools.Op_summary.tool s) (fun ctx ->
        Dlfw.Model.inference_iter ctx (small_model ctx))
  in
  let rows = Pasta_tools.Op_summary.rows s in
  check_bool "operators attributed" true (List.length rows > 3);
  (* Every kernel is accounted for: attributed + unattributed = total. *)
  let attributed = List.fold_left (fun acc r -> acc + r.Pasta_tools.Op_summary.kernels) 0 rows in
  check_int "kernel accounting closes" result.Pasta.Session.kernels
    (attributed + Pasta_tools.Op_summary.unattributed_kernels s);
  (* GEMMs dominate a transformer: addmm must be the top operator. *)
  (match rows with
  | top :: _ ->
      check_bool "addmm dominates" true
        (Astring_contains.contains top.Pasta_tools.Op_summary.op_name "addmm"
        || Astring_contains.contains top.Pasta_tools.Op_summary.op_name "bmm")
  | [] -> Alcotest.fail "no rows");
  check_bool "gpu time positive" true (Pasta_tools.Op_summary.total_gpu_time_us s > 0.0);
  let report = Format.asprintf "%t" (Pasta_tools.Op_summary.report s) in
  check_bool "report renders" true (Astring_contains.contains report "GPU time")

let test_op_summary_nested_ops () =
  (* conv lowers through nested record scopes; attribution goes to the
     innermost open operator and the stack unwinds cleanly. *)
  let s = Pasta_tools.Op_summary.create () in
  let _ =
    run_with (Pasta_tools.Op_summary.tool s) (fun ctx ->
        let m = Dlfw.Resnet.build18 ctx in
        Dlfw.Model.inference_iter ctx m)
  in
  check_int "no kernels leak outside operators" 0
    (Pasta_tools.Op_summary.unattributed_kernels s)

(* ---- Trace_export ---- *)

let test_trace_export_structure () =
  let tx = Pasta.Trace_export.create () in
  let result =
    run_with (Pasta.Trace_export.tool tx) (fun ctx ->
        Dlfw.Model.inference_iter ctx (small_model ctx))
  in
  check_bool "events materialized" true (Pasta.Trace_export.event_count tx > 50);
  let json = Pasta.Trace_export.to_json tx in
  check_bool "object wrapper" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  check_bool "has traceEvents" true (Astring_contains.contains json "\"traceEvents\":[");
  check_bool "has duration events" true (Astring_contains.contains json "\"ph\":\"X\"");
  check_bool "has counter track" true (Astring_contains.contains json "\"ph\":\"C\"");
  check_bool "kernel names present" true (Astring_contains.contains json "xla::" = false);
  check_bool "operator names present" true (Astring_contains.contains json "aten::");
  (* One duration event per kernel. *)
  let count_occurrences needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else if String.sub hay i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check_bool "at least one X event per kernel" true
    (count_occurrences {|"cat":"kernel"|} json >= result.Pasta.Session.kernels)

let test_trace_export_escaping () =
  let tx = Pasta.Trace_export.create () in
  let label = "quo\"te\\back\ttab\nline\x01" in
  Pasta.Trace_export.record tx
    {
      Pasta.Event.device = 0;
      time_us = 1.0;
      payload = Pasta.Event.Annotation { label; phase = `Start };
    };
  let json = Pasta.Trace_export.to_json tx in
  check_bool "quotes escaped" true (Astring_contains.contains json {|quo\"te\\back|});
  check_bool "control characters escaped" true
    (Astring_contains.contains json {|\ttab\nline\u0001|});
  let open Pasta_util.Njson in
  match mem "traceEvents" (of_string json) with
  | Some (List [ ev ]) ->
      Alcotest.(check (option string))
        "the label reads back" (Some label)
        (Option.bind (mem "args" ev) (str_field "label"))
  | _ -> Alcotest.fail "one trace event"

let test_trace_export_file () =
  let tx = Pasta.Trace_export.create () in
  let _ =
    run_with (Pasta.Trace_export.tool tx) (fun ctx ->
        Dlfw.Model.inference_iter ctx (small_model ctx))
  in
  let path = Filename.temp_file "pasta_trace" ".json" in
  Pasta.Trace_export.write_file tx path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  check_int "file holds the json" (String.length (Pasta.Trace_export.to_json tx)) len

let test_trace_export_unbalanced () =
  let tx = Pasta.Trace_export.create () in
  (* An end without a begin is dropped, not crashed on. *)
  Pasta.Trace_export.record tx
    {
      Pasta.Event.device = 0;
      time_us = 5.0;
      payload = Pasta.Event.Operator { name = "aten::orphan"; phase = `Exit; seq = 99 };
    };
  check_int "orphan end dropped" 0 (Pasta.Trace_export.event_count tx)

let suite =
  [
    ("op_summary attribution", `Quick, test_op_summary_attribution);
    ("op_summary nested operators", `Quick, test_op_summary_nested_ops);
    ("trace export structure", `Quick, test_trace_export_structure);
    ("trace export escaping", `Quick, test_trace_export_escaping);
    ("trace export file", `Quick, test_trace_export_file);
    ("trace export unbalanced", `Quick, test_trace_export_unbalanced);
  ]

(* ---- Transfer ---- *)

let test_transfer_tool () =
  let t = Pasta_tools.Transfer.create () in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let (), _ =
    Pasta.Session.run ~tool:(Pasta_tools.Transfer.tool t) device (fun () ->
        Gpusim.Device.memcpy device ~dst:0 ~src:0 ~bytes:1000
          ~kind:Gpusim.Device.Host_to_device ();
        Gpusim.Device.memcpy device ~dst:0 ~src:0 ~bytes:2000
          ~kind:Gpusim.Device.Host_to_device ();
        Gpusim.Device.memcpy device ~dst:0 ~src:0 ~bytes:1000
          ~kind:Gpusim.Device.Device_to_host ();
        Gpusim.Device.memcpy device ~dst:0 ~src:0 ~bytes:5000
          ~kind:Gpusim.Device.Device_to_device ())
  in
  check_int "count" 4 (Pasta_tools.Transfer.total_count t);
  check_int "bytes" 9000 (Pasta_tools.Transfer.total_bytes t);
  check_int "h2d" 3000 (Pasta_tools.Transfer.h2d_bytes t);
  check_int "d2h" 1000 (Pasta_tools.Transfer.d2h_bytes t);
  Alcotest.(check (float 1e-9)) "imbalance" 0.75 (Pasta_tools.Transfer.imbalance t);
  (match Pasta_tools.Transfer.rows t with
  | top :: _ -> check_int "largest direction first" 5000 top.Pasta_tools.Transfer.bytes
  | [] -> Alcotest.fail "no rows");
  let report = Format.asprintf "%t" (Pasta_tools.Transfer.report t) in
  check_bool "report" true (Astring_contains.contains report "copies")

let test_transfer_empty () =
  let t = Pasta_tools.Transfer.create () in
  Alcotest.(check (float 0.0)) "imbalance zero" 0.0 (Pasta_tools.Transfer.imbalance t);
  let report = Format.asprintf "%t" (Pasta_tools.Transfer.report t) in
  check_bool "empty report" true (Astring_contains.contains report "no copies")

let suite =
  suite
  @ [
      ("transfer tool", `Quick, test_transfer_tool);
      ("transfer empty", `Quick, test_transfer_empty);
    ]

(* ---- Underutilized ---- *)

let test_underutilized () =
  let u = Pasta_tools.Underutilized.create () in
  let result =
    run_with (Pasta_tools.Underutilized.tool u) (fun ctx ->
        Dlfw.Model.inference_iter ctx (small_model ctx))
  in
  ignore result;
  check_bool "tensors observed" true (Pasta_tools.Underutilized.rows u <> []);
  check_bool "fraction in [0,1]" true
    (Pasta_tools.Underutilized.cold_fraction u >= 0.0
    && Pasta_tools.Underutilized.cold_fraction u <= 1.0);
  (* The persistent cuBLASLt workspace is passed to GEMMs but never
     dereferenced: the tool must surface it as cold. *)
  (match Pasta_tools.Underutilized.rows u with
  | coldest :: _ ->
      check_bool "workspace is the coldest object" true
        (Astring_contains.contains coldest.Pasta_tools.Underutilized.tag "workspace");
      check_int "never accessed" 0 coldest.Pasta_tools.Underutilized.accesses
  | [] -> Alcotest.fail "no rows");
  check_bool "cold bytes below total" true
    (Pasta_tools.Underutilized.cold_bytes u
    < Pasta_tools.Underutilized.allocated_bytes_total u);
  let report = Format.asprintf "%t" (Pasta_tools.Underutilized.report u) in
  check_bool "report renders" true (Astring_contains.contains report "offloading")

let test_underutilized_threshold () =
  let u = Pasta_tools.Underutilized.create ~cold_threshold:1000 () in
  let _ =
    run_with (Pasta_tools.Underutilized.tool u) (fun ctx ->
        Dlfw.Model.inference_iter ctx (small_model ctx))
  in
  let u0 = Pasta_tools.Underutilized.create () in
  let _ =
    run_with (Pasta_tools.Underutilized.tool u0) (fun ctx ->
        Dlfw.Model.inference_iter ctx (small_model ctx))
  in
  check_bool "higher threshold marks more bytes cold" true
    (Pasta_tools.Underutilized.cold_bytes u >= Pasta_tools.Underutilized.cold_bytes u0)

let suite =
  suite
  @ [
      ("underutilized", `Quick, test_underutilized);
      ("underutilized threshold", `Quick, test_underutilized_threshold);
    ]
