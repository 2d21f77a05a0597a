(* accelprof: the PASTA profiling client (the paper's artifact runs
   `accelprof -v -t <tool> <executable> [args...]`; here the "executable"
   is one of the simulated Table IV workloads).

   Examples:
     accelprof -t kernel_freq BERT
     accelprof -t memory_charact --mode train --gpu rtx3060 GPT-2
     accelprof -t hotness --start-grid 100 --end-grid 200 BERT
     accelprof record run.ptrace -t hotness BERT
     accelprof replay run.ptrace --tools hotness,kernel_freq
     accelprof trace stat run.ptrace
     accelprof trace diff a.ptrace b.ptrace
     accelprof list-tools *)

open Cmdliner

(* A run that *completed* but lost data — tools quarantined, records
   dropped, fleet devices missing — must not exit 0.  Success paths set
   this and the process exits Exit_code.degraded instead; real failures
   keep their usual nonzero codes.  Every code accelprof decides itself
   comes from the Pasta.Exit_code table. *)
let degraded = ref false

let arch_of_string = function
  | "a100" -> Ok Gpusim.Arch.a100
  | "rtx3060" -> Ok Gpusim.Arch.rtx3060
  | "mi300x" -> Ok Gpusim.Arch.mi300x
  | s -> Error (`Msg (Printf.sprintf "unknown GPU %S (a100 | rtx3060 | mi300x)" s))

let arch_conv =
  Arg.conv
    ( (fun s -> arch_of_string (String.lowercase_ascii s)),
      fun ppf a -> Format.pp_print_string ppf a.Gpusim.Arch.name )

let mode_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "inference" | "infer" -> Ok Dlfw.Runner.Inference
        | "train" | "training" -> Ok Dlfw.Runner.Train
        | s -> Error (`Msg (Printf.sprintf "unknown mode %S (inference | train)" s))),
      fun ppf m -> Format.pp_print_string ppf (Dlfw.Runner.mode_to_string m) )

let tool_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "t"; "tool" ] ~docv:"TOOL"
        ~doc:"PASTA tool to run (see $(b,list-tools)); defaults to \\$PASTA_TOOL.")

let gpu_arg =
  Arg.(
    value
    & opt arch_conv Gpusim.Arch.a100
    & info [ "gpu" ] ~docv:"GPU" ~doc:"Simulated GPU: a100, rtx3060 or mi300x.")

let mode_arg =
  Arg.(
    value
    & opt mode_conv Dlfw.Runner.Inference
    & info [ "mode" ] ~docv:"MODE" ~doc:"Workload mode: inference or train.")

let iters_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "iters" ] ~docv:"N" ~doc:"Iterations (default: the per-model evaluation count).")

let sample_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample-cap" ] ~docv:"N"
        ~doc:"Max materialized trace records per kernel region \
              (ACCEL_PROF_ENV_SAMPLE_RATE).")

let rate_conv =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some r when r > 0.0 && r <= 1.0 -> Ok r
        | _ -> Error (`Msg (Printf.sprintf "bad sample rate %S (must be in (0, 1])" s))),
      fun ppf r -> Format.fprintf ppf "%g" r )

let sample_rate_arg =
  Arg.(
    value
    & opt (some rate_conv) None
    & info [ "sample-rate" ] ~docv:"RATE"
        ~doc:
          "Keep this fraction of fine-grained records, in (0, 1] \
           (ACCEL_PROF_SAMPLE_RATE). Surviving records carry \
           inverse-probability weights, so weighted statistics stay \
           unbiased; reports annotate estimates with their sampling error.")

let budget_conv =
  Arg.conv
    ( (fun s ->
        match Pasta.Config.parse_budget s with
        | Some f -> Ok f
        | None ->
            Error
              (`Msg
                (Printf.sprintf "bad overhead budget %S (use \"5%%\" or \"0.05\")" s))),
      fun ppf f -> Format.fprintf ppf "%g" f )

let budget_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "overhead-budget" ] ~docv:"PCT"
        ~doc:
          "Adaptive sampling: keep analysis overhead under this fraction of \
           workload time, e.g. $(b,5%) or $(b,0.05) \
           (ACCEL_PROF_OVERHEAD_BUDGET). A closed-loop governor lowers the \
           record sampling rate when the measured overhead exceeds the \
           budget and recovers it when there is headroom; combined with \
           $(b,--sample-rate), that rate is the fallback when telemetry is \
           off.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domain-pool size for parallel device-side preprocessing \
           (ACCEL_PROF_DOMAINS). 1 runs fully serial; the default is the \
           machine's recommended domain count, capped at 8. Results are \
           identical for every value.")

let devices_arg =
  Arg.(
    value & opt int 1
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "Profile a fleet of $(docv) simulated devices instead of one \
           workload: each device runs a seeded profiling shard under a \
           per-device deadline with retried, backed-off attempts, and the \
           per-device summaries merge through a failure-tolerant tree \
           reduction. With $(b,--devices) > 1 the MODEL argument is ignored \
           and the partial fleet report is printed.")

let fleet_fanout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fleet-fanout" ] ~docv:"K"
        ~doc:
          "Merge-tree fanout for fleet aggregation, >= 2 \
           (ACCEL_PROF_FLEET_FANOUT; default 8).")

let strict_fleet_arg =
  Arg.(
    value & flag
    & info [ "strict-fleet" ]
        ~doc:
          "Treat fleet devices absent from the aggregate (missing or \
           dropped at a merge node) as a hard failure instead of \
           completing with a partial report and the degraded exit code \
           (ACCEL_PROF_STRICT_FLEET).")

let start_grid_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "start-grid" ] ~docv:"ID" ~doc:"First kernel launch to analyze (START_GRID_ID).")

let end_grid_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "end-grid" ] ~docv:"ID" ~doc:"Last kernel launch to analyze (END_GRID_ID).")

let regions_arg =
  Arg.(
    value
    & opt (some (enum [ ("off", "off"); ("coarse", "coarse"); ("fine", "fine") ])) None
    & info [ "regions" ] ~docv:"LEVEL"
        ~doc:
          "Intra-kernel region instrumentation (ACCEL_PROF_REGIONS): \
           $(b,off) (default) inserts no probes and keeps the run \
           byte-identical to an uninstrumented session, $(b,coarse) probes \
           prologue/body/epilogue, $(b,fine) additionally splits the body \
           per memory region, shared-memory block and barrier. Region \
           boundaries flow through the unified event stream — consume them \
           with the $(b,region_latency) and $(b,region_roofline) tools, the \
           nested region track of $(b,--trace), or the region-labelled \
           series in $(b,--metrics-out).")

let backends_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backends" ] ~docv:"B1:GPU,B2:GPU"
        ~doc:
          "Heterogeneous multi-backend session: a comma-separated list of \
           $(b,backend:gpu) pairs (e.g. \
           $(b,sanitizer:a100,opencl:mi300x,xprof:tpu_v4)). One device is \
           created per entry and the workload runs once per backend on one \
           simulated timeline. With two or more entries, every report, \
           metric series and trace track carries its backend label; a \
           one-entry list is the solo run. The gpu part is optional; each \
           backend has a natural default (sanitizer/nvbit: a100, \
           rocprofiler: mi300x, opencl: a100, xprof: tpu_v4). Overrides \
           $(b,--gpu).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print session statistics.")

let health_arg =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Print the pipeline health report: tool failures and quarantines, \
           bounded-buffer drop counts, watchdog trips, trace-capture/replay \
           accounting and injected-fault totals.")

let inject_faults_arg =
  Arg.(
    value & flag
    & info [ "inject-faults" ]
        ~doc:
          "Enable deterministic fault injection (corrupted records, \
           dropped/duplicated events, ECC errors, stuck kernels), seeded from \
           $(b,--fault-seed) / \\$ACCEL_PROF_FAULT_SEED.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Fault-injection seed (ACCEL_PROF_FAULT_SEED); same seed, same faults.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Also write a chrome://tracing / Perfetto trace of the run to \
              $(docv).")

let telemetry_arg =
  Arg.(
    value
    & opt (some (enum [ ("off", "off"); ("basic", "basic"); ("full", "full") ])) None
    & info [ "telemetry" ] ~docv:"LEVEL"
        ~doc:
          "Framework self-telemetry level (ACCEL_PROF_TELEMETRY): $(b,off), \
           $(b,basic) (allocation-free self-time attribution, the default) or \
           $(b,full) (per-span recording for export).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the framework's own telemetry spans as a Chrome/Perfetto \
           trace to $(docv) (implies $(b,--telemetry full)). Combined with \
           $(b,--trace), the workload timeline and the telemetry spans land \
           in one file.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write pipeline and telemetry metrics in Prometheus text \
           exposition format to $(docv).")

let overhead_arg =
  Arg.(
    value & flag
    & info [ "overhead-report" ]
        ~doc:
          "Print the self-time attribution table: wall time of the run split \
           across simulate/handler/processor layers and each tool, summing \
           to the measurement window.")

let tolerant_arg =
  Arg.(
    value & flag
    & info [ "tolerant" ]
        ~doc:
          "Skip corrupt trace chunks instead of failing on the first CRC or \
           framing violation (ACCEL_PROF_TRACE_STRICT=0).")

let model_pos p =
  Arg.(
    value
    & pos p (some string) None
    & info [] ~docv:"MODEL" ~doc:"Workload: AN, RN-18, RN-34, BERT, GPT-2 or Whisper.")

(* Fleet path (--devices N > 1): the orchestrator drives its own seeded
   per-device shards, so the MODEL/tool machinery is bypassed; [capture]
   becomes the per-device trace prefix and [replay_traces] rebuilds the
   result from a previous capture instead of running live. *)
let fleet_cfg ~devices ~fanout ~inject_faults ~sample_rate ~overhead_budget
    ~capture =
  let cfg = Pasta.Fleet.default_cfg ~devices () in
  {
    cfg with
    Pasta.Fleet.fanout = Option.value fanout ~default:cfg.Pasta.Fleet.fanout;
    fault_rates =
      (if inject_faults then Some Gpusim.Faults.default_fleet_rates
       else cfg.Pasta.Fleet.fault_rates);
    sample_rate =
      (match sample_rate with
      | Some _ -> sample_rate
      | None -> cfg.Pasta.Fleet.sample_rate);
    overhead_budget =
      (match overhead_budget with
      | Some _ -> overhead_budget
      | None -> cfg.Pasta.Fleet.overhead_budget);
    capture_prefix = capture;
  }

let run_fleet ?(replay_traces = false) ~devices ~fanout ~strict ~inject_faults
    ~sample_rate ~overhead_budget ~capture ~metrics_out ~trace_out () =
  let cfg =
    fleet_cfg ~devices ~fanout ~inject_faults ~sample_rate ~overhead_budget
      ~capture
  in
  match if replay_traces then Pasta.Fleet.replay cfg else Pasta.Fleet.run cfg with
  | exception Invalid_argument msg -> `Error (false, msg)
  | r ->
      print_string r.Pasta.Fleet.report;
      (if (not replay_traces) && capture <> None then
         Option.iter
           (fun prefix ->
             Format.printf "[accelprof] fleet traces written to %s@."
               (Pasta.Fleet.trace_path prefix 0 |> fun first ->
                Printf.sprintf "%s .. %s" first
                  (Pasta.Fleet.trace_path prefix (devices - 1))))
           capture);
      (match trace_out with
      | None -> ()
      | Some path ->
          Pasta.Telemetry.write_chrome_trace path;
          Format.printf "[accelprof] telemetry trace written to %s (%d spans)@."
            path
            (Pasta.Telemetry.spans_recorded ()));
      (match metrics_out with
      | None -> ()
      | Some path ->
          Pasta.Telemetry.write_prometheus ~extra:[ r.Pasta.Fleet.registry ]
            path;
          Format.printf "[accelprof] metrics written to %s@." path);
      let absent =
        List.fold_left
          (fun acc (_, devs) -> acc + List.length devs)
          r.Pasta.Fleet.missing r.Pasta.Fleet.dropped_at_merge
      in
      if strict && absent > 0 then
        `Error
          ( false,
            Printf.sprintf
              "fleet: %d device(s) missing from the aggregate (--strict-fleet)"
              absent )
      else begin
        if
          r.Pasta.Fleet.missing > 0
          || r.Pasta.Fleet.quarantined_total > 0
          || r.Pasta.Fleet.records_dropped > 0
          || r.Pasta.Fleet.dropped_at_merge <> []
        then degraded := true;
        `Ok ()
      end

(* --backends parsing: "kind[:gpu]" items, each becoming one device of a
   heterogeneous session. *)
let default_arch_for_kind = function
  | Pasta.Backend.Sanitizer | Pasta.Backend.Nvbit | Pasta.Backend.Opencl ->
      Gpusim.Arch.a100
  | Pasta.Backend.Rocprofiler -> Gpusim.Arch.mi300x
  | Pasta.Backend.Xprof -> Gpusim.Arch.tpu_v4

let backend_arch_of_string s =
  match String.lowercase_ascii s with
  | "tpu_v4" | "tpu-v4" | "tpu" -> Ok Gpusim.Arch.tpu_v4
  | s -> arch_of_string s

let parse_backends spec =
  let items =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if items = [] then Error "empty --backends list"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          let kind_s, arch_s =
            match String.index_opt item ':' with
            | None -> (item, None)
            | Some i ->
                ( String.sub item 0 i,
                  Some (String.sub item (i + 1) (String.length item - i - 1)) )
          in
          match Pasta.Backend.kind_of_string kind_s with
          | None ->
              Error
                (Printf.sprintf
                   "unknown backend %S (sanitizer | nvbit | rocprofiler | \
                    xprof | opencl)"
                   kind_s)
          | Some kind -> (
              match arch_s with
              | None -> go ((kind, default_arch_for_kind kind) :: acc) rest
              | Some a -> (
                  match backend_arch_of_string a with
                  | Ok arch -> go ((kind, arch) :: acc) rest
                  | Error (`Msg m) -> Error m)))
    in
    go [] items

(* The one profile driver: a device per spec, the workload run once per
   device on one simulated timeline, one session over every backend.  The
   session's count rule picks the layout: one backend prints exactly what
   a solo run prints; several label every statistics line, the trace's
   track groups and each report. *)
let run_backends ~specs ~tool ~capture ~capture_meta ~mode ~iters ~range
    ~sample_cap ~sample_rate ~overhead_budget ~trace ~verbose ~health
    ~inject_faults ~trace_out ~metrics_out ~overhead abbr =
  let labelled = List.length specs > 1 in
  let ctxs = List.map (fun (_, device) -> Dlfw.Ctx.create device) specs in
  (* The optional trace exporter runs as a second, independent session on
     every device alongside the selected tool. *)
  let tracer =
    Option.map
      (fun path ->
        let tx = Pasta.Trace_export.create () in
        let sessions =
          List.map
            (fun (kind, device) ->
              let id = Gpusim.Device.id device in
              if labelled then
                Pasta.Trace_export.set_track_group tx ~pid:id
                  (Printf.sprintf "%s (device %d)" (Pasta.Backend.kind_to_string kind) id);
              Pasta.Session.attach ~tool:(Pasta.Trace_export.tool tx) device)
            specs
        in
        (path, tx, sessions))
      trace
  in
  let (), mr =
    Pasta.Session.run_multi ~range ?sample_cap ?sample_rate ?overhead_budget
      ?capture ?capture_meta ~tool specs (fun () ->
        List.iter
          (fun ctx -> Dlfw.Runner.run ctx (Dlfw.Runner.build ctx abbr) ~mode ~iters)
          ctxs)
  in
  Option.iter
    (fun (path, tx, sessions) ->
      List.iter (fun s -> ignore (Pasta.Session.detach s : Pasta.Session.result)) sessions;
      Pasta.Trace_export.write_file tx path;
      Format.printf "[accelprof] trace written to %s (%d events)@." path
        (Pasta.Trace_export.event_count tx))
    tracer;
  let results = mr.Pasta.Session.mr_backends in
  (* The report renders now, inside the attribution window and on its
     own row, so --overhead-report counts it; it prints last, as ever. *)
  let report = Format.asprintf "%t" mr.Pasta.Session.mr_report in
  (* A single backend is unlabelled, and its lines carry no tag. *)
  let tag label = if label = "" then "" else Printf.sprintf "backend=%s " label in
  (* Attribution is snapshotted before the exporters run, so the report
     reflects the profiled run, not the export I/O. *)
  let exports () =
    if overhead then begin
      Format.printf "[accelprof] %a@." Pasta.Telemetry.pp_attribution
        (Pasta.Telemetry.attribution ());
      List.iter
        (fun (label, r) ->
          Option.iter
            (Format.printf "[accelprof] %s%a@." (tag label) Pasta.Sampler.pp_snapshot)
            r.Pasta.Session.health.Pasta.Session.sampling)
        results
    end;
    (match trace_out with
    | None -> ()
    | Some path ->
        (* With --trace also active, splice the telemetry spans into the
           workload timeline; alone, write them standalone. *)
        (match tracer with
        | Some (_, tx, _) ->
            Pasta.Trace_export.write_file ~extra:(Pasta.Telemetry.chrome_events ()) tx path
        | None -> Pasta.Telemetry.write_chrome_trace path);
        Format.printf "[accelprof] telemetry trace written to %s (%d spans)@." path
          (Pasta.Telemetry.spans_recorded ()));
    match metrics_out with
    | None -> ()
    | Some path ->
        Pasta.Telemetry.write_prometheus
          ~extra:(List.map (fun (_, r) -> r.Pasta.Session.metrics) results)
          path;
        Format.printf "[accelprof] metrics written to %s@." path
  in
  let stats_line ((_, device), (label, r)) =
    let mode = Dlfw.Runner.mode_to_string mode in
    let kernels = r.Pasta.Session.kernels and seen = r.Pasta.Session.events_seen in
    let dispatched = r.Pasta.Session.events_dispatched in
    if verbose && label = "" then
      Format.printf
        "[accelprof] tool=%s gpu=%s %s-%s x%d: %d kernels, %d events seen, %d \
         dispatched, %.2f ms simulated (%a)@.@."
        r.Pasta.Session.tool_name (Gpusim.Device.arch device).Gpusim.Arch.name abbr mode
        iters kernels seen dispatched
        (r.Pasta.Session.elapsed_us /. 1000.0)
        Vendor.Phases.pp r.Pasta.Session.phases
    else if verbose then
      Format.printf
        "[accelprof] backend=%s %s-%s x%d: %d kernels, %d events seen, %d \
         dispatched (%a)@."
        label abbr mode iters kernels seen dispatched Vendor.Phases.pp
        r.Pasta.Session.phases
  in
  let health_line (_, (label, r)) =
    if health || inject_faults then
      Format.printf "[accelprof] %s%a@." (tag label) Pasta.Session.pp_health
        r.Pasta.Session.health
  in
  (match (capture, results) with
  | Some path, [ (_, r) ] ->
      let h = r.Pasta.Session.health in
      Format.printf "[accelprof] ptrace written to %s (%d ops, %d bytes, %d chunks)@." path
        h.Pasta.Session.events_recorded h.Pasta.Session.bytes_written h.Pasta.Session.chunks
  | Some path, _ -> Format.printf "[accelprof] mixed-backend ptrace written to %s@." path
  | None, _ -> ());
  (* A solo run prints the exports between its statistics and health
     lines; several backends print theirs in pairs, then the exports. *)
  (match List.combine specs results with
  | [ b ] ->
      stats_line b;
      exports ();
      health_line b
  | backends ->
      List.iter
        (fun b ->
          stats_line b;
          health_line b)
        backends;
      exports ());
  print_string report;
  (* The workload contexts outlive the session: their teardown is not
     part of the profiled run. *)
  List.iter Dlfw.Ctx.destroy ctxs;
  (* Data loss without hard failure: report it in the exit code. *)
  List.iter
    (fun (_, r) ->
      let h = r.Pasta.Session.health in
      if h.Pasta.Session.quarantines > 0 || h.Pasta.Session.records_dropped > 0 then
        degraded := true)
    results;
  `Ok ()

(* A knob with an enumerated value set refuses a misspelling
   ([Pasta.Config.validate]): report it as an error before any work. *)
let with_valid_knobs f =
  match Pasta.Config.validate () with Error msg -> `Error (false, msg) | Ok () -> f ()

(* Shared workload driver for `accelprof MODEL` and `accelprof record`.
   [capture] streams the main session's op stream to a .ptrace file;
   [default_tool] lets `record` fall back to the passthrough capture tool
   when no analysis is selected. *)
let run_workload ?capture ?default_tool tool_name gpu mode iters sample_cap
    sample_rate overhead_budget domains devices fleet_fanout strict_fleet
    start_grid end_grid regions backends verbose health inject_faults
    fault_seed trace telemetry trace_out metrics_out overhead model =
  (* Registry key for the trace header, so replay can re-resolve the same
     tool (display names are not unique across tool variants). *)
  let capture_meta =
    match tool_name with Some n -> Some n | None -> Pasta.Config.tool_name ()
  in
  Pasta_tools.Tools.register_all ();
  if inject_faults then Pasta.Config.set "ACCEL_PROF_INJECT_FAULTS" "1";
  Option.iter
    (fun n -> Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int n))
    domains;
  Option.iter
    (fun s -> Pasta.Config.set "ACCEL_PROF_FAULT_SEED" (Int64.to_string s))
    fault_seed;
  Option.iter (fun g -> Pasta.Config.set "ACCEL_PROF_REGIONS" g) regions;
  (* Telemetry level: the explicit flag wins; exporters escalate to the
     level they need (span export needs full, metrics/overhead need at
     least basic). *)
  Option.iter (fun l -> Pasta.Config.set "ACCEL_PROF_TELEMETRY" l) telemetry;
  (match (trace_out, Pasta.Config.telemetry ()) with
  | Some _, (`Off | `Basic) -> Pasta.Config.set "ACCEL_PROF_TELEMETRY" "full"
  | _ -> ());
  (match (metrics_out, overhead, Pasta.Config.telemetry ()) with
  | Some _, _, `Off | _, true, `Off ->
      Pasta.Config.set "ACCEL_PROF_TELEMETRY" "basic"
  | _ -> ());
  Pasta.Telemetry.refresh_level ();
  Pasta.Telemetry.reset ();
  if strict_fleet then Pasta.Config.set "ACCEL_PROF_STRICT_FLEET" "1";
  with_valid_knobs @@ fun () ->
  if devices < 1 then `Error (true, "--devices must be >= 1")
  else if devices > 1 then
    run_fleet ~devices ~fanout:fleet_fanout
      ~strict:(Pasta.Config.strict_fleet ())
      ~inject_faults ~sample_rate ~overhead_budget ~capture ~metrics_out
      ~trace_out ()
  else
  match model with
  | None -> `Error (true, "a MODEL argument is required (try list-tools or --help)")
  | Some abbr when not (List.mem abbr Dlfw.Runner.all_abbrs) ->
      `Error
        ( false,
          Printf.sprintf "unknown model %S; available: %s" abbr
            (String.concat ", " Dlfw.Runner.all_abbrs) )
  | Some abbr -> (
      let specs =
        match backends with
        | None -> Ok None
        | Some spec -> Result.map Option.some (parse_backends spec)
      in
      let mk_tool =
        match tool_name with
        | Some name -> Pasta.Registry.find name
        | None -> (
            match Option.bind (Pasta.Config.tool_name ()) Pasta.Registry.find with
            | Some mk -> Some mk
            | None -> Option.map (fun t () -> t) default_tool)
      in
      match (specs, mk_tool) with
      | Error msg, _ -> `Error (false, msg)
      | _, None ->
          `Error
            ( false,
              Printf.sprintf "no tool selected or unknown tool; available: %s"
                (String.concat ", " (Pasta.Registry.names ())) )
      | Ok specs, Some mk ->
          (* Every --backends entry gets its own device and a fresh tool,
             so per-backend reports never mix state.  Without the flag,
             the --gpu device takes the backend Session.attach would pick
             for the one tool. *)
          let specs, tool =
            match specs with
            | Some specs ->
                ( List.mapi (fun i (kind, arch) -> (kind, Gpusim.Device.create ~id:i arch)) specs,
                  fun _ _ -> mk () )
            | None ->
                let t = mk () and device = Gpusim.Device.create gpu in
                ( [ (Pasta.Backend.default_kind_for ~fine_grained:t.Pasta.Tool.fine_grained device,
                     device) ],
                  fun _ _ -> t )
          in
          (* A backend that refuses its device or the tool's analysis
             model is a usage error, reported before anything is created,
             attached or written. *)
          match
            List.find_map
              (fun (kind, device) ->
                Pasta.Backend.refusal kind device (tool kind device).Pasta.Tool.fine_grained)
              specs
          with
          | Some msg -> `Error (false, msg)
          | None ->
              let range = Pasta.Range.create ?start_grid ?end_grid () in
              let iters =
                match iters with
                | Some n -> n
                | None -> Dlfw.Runner.default_iters ~abbr ~mode
              in
              run_backends ~specs ~tool ~capture ~capture_meta ~mode ~iters ~range
                ~sample_cap ~sample_rate ~overhead_budget ~trace ~verbose ~health
                ~inject_faults ~trace_out ~metrics_out ~overhead abbr)

let run_profile tool_name gpu mode iters sample_cap sample_rate overhead_budget
    domains devices fleet_fanout strict_fleet start_grid end_grid regions
    backends verbose health inject_faults fault_seed trace telemetry trace_out
    metrics_out overhead model =
  run_workload tool_name gpu mode iters sample_cap sample_rate overhead_budget
    domains devices fleet_fanout strict_fleet start_grid end_grid regions
    backends verbose health inject_faults fault_seed trace telemetry trace_out
    metrics_out overhead model

let profile_term =
  Term.(
    ret
      (const run_profile $ tool_arg $ gpu_arg $ mode_arg $ iters_arg
     $ sample_cap_arg $ sample_rate_arg $ budget_arg $ domains_arg
     $ devices_arg $ fleet_fanout_arg $ strict_fleet_arg
     $ start_grid_arg $ end_grid_arg $ regions_arg $ backends_arg
     $ verbose_arg $ health_arg
     $ inject_faults_arg $ fault_seed_arg $ trace_arg $ telemetry_arg
     $ trace_out_arg $ metrics_out_arg $ overhead_arg $ model_pos 0))

(* --- record ------------------------------------------------------- *)

let out_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OUT.ptrace" ~doc:"Trace file to write.")

let run_record out tool_name gpu mode iters sample_cap sample_rate
    overhead_budget domains devices fleet_fanout strict_fleet start_grid
    end_grid regions backends verbose health inject_faults fault_seed telemetry
    trace_out metrics_out overhead model =
  run_workload ~capture:out
    ~default_tool:(Pasta.Capture.passthrough ())
    tool_name gpu mode iters sample_cap sample_rate overhead_budget domains
    devices fleet_fanout strict_fleet start_grid end_grid regions backends
    verbose health inject_faults fault_seed None telemetry trace_out
    metrics_out overhead model

let record_cmd =
  let term =
    Term.(
      ret
        (const run_record $ out_pos $ tool_arg $ gpu_arg $ mode_arg $ iters_arg
       $ sample_cap_arg $ sample_rate_arg $ budget_arg $ domains_arg
       $ devices_arg $ fleet_fanout_arg $ strict_fleet_arg
       $ start_grid_arg $ end_grid_arg $ regions_arg $ backends_arg
       $ verbose_arg $ health_arg
       $ inject_faults_arg $ fault_seed_arg $ telemetry_arg $ trace_out_arg
       $ metrics_out_arg $ overhead_arg $ model_pos 1))
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "run a workload and capture its submission-level op stream to a \
          .ptrace file; without $(b,--tool), a passthrough capture tool \
          records fine-grained batches with no analysis. With \
          $(b,--devices) N > 1, OUT.ptrace is the per-device trace prefix \
          (OUT.devNNN.ptrace) for the fleet shards")
    term

(* --- replay ------------------------------------------------------- *)

let in_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"IN.ptrace" ~doc:"Trace file to replay.")

let tools_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tools" ] ~docv:"T1,T2"
        ~doc:
          "Comma-separated tools to re-drive over the trace; defaults to the \
           tool recorded in the trace header, then \\$PASTA_TOOL.")

let replay_mode tolerant =
  if tolerant then Pasta.Ptrace.Tolerant
  else if Pasta.Config.trace_strict () then Pasta.Ptrace.Strict
  else Pasta.Ptrace.Tolerant

let run_replay path tools tolerant devices fleet_fanout strict_fleet
    inject_faults fault_seed start_grid end_grid verbose health =
  Pasta_tools.Tools.register_all ();
  if inject_faults then Pasta.Config.set "ACCEL_PROF_INJECT_FAULTS" "1";
  Option.iter
    (fun s -> Pasta.Config.set "ACCEL_PROF_FAULT_SEED" (Int64.to_string s))
    fault_seed;
  if strict_fleet then Pasta.Config.set "ACCEL_PROF_STRICT_FLEET" "1";
  with_valid_knobs @@ fun () ->
  if devices > 1 then begin
    (* IN.ptrace is the prefix a fleet `record --devices N` wrote; the
       cascade (same seed, same fault schedule) is rebuilt offline from
       the per-device traces. *)
    Pasta.Telemetry.refresh_level ();
    Pasta.Telemetry.reset ();
    run_fleet ~replay_traces:true ~devices ~fanout:fleet_fanout
      ~strict:(Pasta.Config.strict_fleet ())
      ~inject_faults ~sample_rate:None ~overhead_budget:None
      ~capture:(Some path) ~metrics_out:None ~trace_out:None ()
  end
  else
  let mode = replay_mode tolerant in
  let tool_names =
    match tools with
    | Some s ->
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun s -> s <> "")
    | None -> (
        match
          (try Some (Pasta.Ptrace.read_header_of_file path)
           with Pasta.Ptrace.Corrupt _ | Sys_error _ -> None)
        with
        | Some h
          when h.Pasta.Ptrace.h_meta <> ""
               && Pasta.Registry.find h.Pasta.Ptrace.h_meta <> None ->
            [ h.Pasta.Ptrace.h_meta ]
        | _ -> ( match Pasta.Config.tool_name () with Some t -> [ t ] | None -> []))
  in
  if tool_names = [] then
    `Error
      ( false,
        Printf.sprintf
          "no tool: pass --tools (available: %s) or record with an analysis tool"
          (String.concat ", " (Pasta.Registry.names ())) )
  else
    let unknown =
      List.filter (fun n -> Pasta.Registry.find n = None) tool_names
    in
    if unknown <> [] then
      `Error
        ( false,
          Printf.sprintf "unknown tool(s) %s; available: %s"
            (String.concat ", " unknown)
            (String.concat ", " (Pasta.Registry.names ())) )
    else
      match
        List.iter
          (fun name ->
            let mk =
              match Pasta.Registry.find name with
              | Some mk -> mk
              | None -> assert false
            in
            let range = Pasta.Range.create ?start_grid ?end_grid () in
            let o = Pasta.Replay.run_multi ~mode ~range ~tool:(fun _ -> mk ()) path in
            (if verbose || health then
               match o.Pasta.Replay.backends with
               | [ (_, proc, _) ] ->
                   Format.printf
                     "[accelprof] replay tool=%s %s: %d ops, %d chunks (%d \
                      skipped), %.2f ms simulated@."
                     (match Pasta.Processor.tool proc with
                     | Some t -> t.Pasta.Tool.name
                     | None -> name)
                     path o.Pasta.Replay.ops_replayed o.Pasta.Replay.chunks
                     o.Pasta.Replay.chunks_skipped
                     (o.Pasta.Replay.elapsed_us /. 1000.0)
               | backends ->
                   Format.printf
                     "[accelprof] replay tool=%s %s: %d ops over %d backends, %d \
                      chunks (%d skipped), %.2f ms simulated@."
                     name path o.Pasta.Replay.ops_replayed (List.length backends)
                     o.Pasta.Replay.chunks o.Pasta.Replay.chunks_skipped
                     (o.Pasta.Replay.elapsed_us /. 1000.0));
            o.Pasta.Replay.report Format.std_formatter)
          tool_names
      with
      | () -> `Ok ()
      | exception Pasta.Ptrace.Corrupt msg ->
          `Error (false, Printf.sprintf "corrupt trace: %s (try --tolerant)" msg)
      | exception Sys_error msg -> `Error (false, msg)

let replay_cmd =
  let term =
    Term.(
      ret
        (const run_replay $ in_pos $ tools_arg $ tolerant_arg $ devices_arg
       $ fleet_fanout_arg $ strict_fleet_arg $ inject_faults_arg
       $ fault_seed_arg $ start_grid_arg $ end_grid_arg $ verbose_arg
       $ health_arg))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "re-drive a recorded .ptrace through the full tool pipeline offline; \
          replaying the recording run's tool reproduces its report byte for \
          byte")
    term

(* --- trace stat / diff -------------------------------------------- *)

let trace_pos p doc =
  Arg.(required & pos p (some string) None & info [] ~docv:"FILE" ~doc)

let run_stat path tolerant =
  match Pasta.Replay.stat ~mode:(replay_mode tolerant) path with
  | s ->
      Format.printf "%a" Pasta.Replay.pp_stat s;
      `Ok ()
  | exception Pasta.Ptrace.Corrupt msg ->
      `Error (false, Printf.sprintf "corrupt trace: %s (try --tolerant)" msg)
  | exception Sys_error msg -> `Error (false, msg)

let run_diff a b tolerant =
  let mode = replay_mode tolerant in
  match Pasta.Replay.diff ~mode a b with
  | Pasta.Replay.Identical _ as d ->
      Format.printf "%a" Pasta.Replay.pp_divergence d;
      `Ok ()
  | d ->
      Format.printf "%a" Pasta.Replay.pp_divergence d;
      (* differing traces exit nonzero, like diff(1) *)
      exit Pasta.Exit_code.failure
  | exception Pasta.Ptrace.Corrupt msg ->
      `Error (false, Printf.sprintf "corrupt trace: %s (try --tolerant)" msg)
  | exception Sys_error msg -> `Error (false, msg)

let stat_cmd =
  Cmd.v
    (Cmd.info "stat" ~doc:"summarize a .ptrace: header, sizes, op-kind histogram")
    Term.(ret (const run_stat $ trace_pos 0 "Trace file to inspect." $ tolerant_arg))

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "structurally compare two .ptrace op streams (chunking and interning \
          layout are ignored); exits 1 when they diverge")
    Term.(
      ret
        (const run_diff $ trace_pos 0 "First trace." $ trace_pos 1 "Second trace."
       $ tolerant_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"inspect and compare recorded .ptrace files")
    [ stat_cmd; diff_cmd ]

(* --- serve / submit / stat ---------------------------------------- *)

let default_listen () =
  match Pasta.Config.get "ACCEL_PROF_LISTEN" with
  | Some a -> a
  | None -> Filename.concat (Filename.get_temp_dir_name ()) "accelprof.sock"

let resolve_addr = function
  | Some a -> Pasta.Serve.addr_of_string a
  | None -> Pasta.Serve.addr_of_string (default_listen ())

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Endpoint to serve on: a unix-socket path or $(b,HOST:PORT) \
           (default \\$ACCEL_PROF_LISTEN, else accelprof.sock in the temp \
           directory).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Daemon endpoint to talk to: a unix-socket path or $(b,HOST:PORT) \
           (default \\$ACCEL_PROF_LISTEN, else accelprof.sock in the temp \
           directory).")

let capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "capacity" ] ~docv:"N"
        ~doc:
          "Bound on jobs queued across all tenants \
           (ACCEL_PROF_SERVE_CAPACITY; default 64); submissions beyond it \
           are rejected, not blocked.")

let quota_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tenant-quota" ] ~docv:"N"
        ~doc:
          "Bound on any one tenant's queued jobs (ACCEL_PROF_SERVE_QUOTA; \
           default 16).")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:"Executor threads (ACCEL_PROF_SERVE_WORKERS; default 4).")

let serve_budget_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "overhead-budget" ] ~docv:"PCT"
        ~doc:
          "Total adaptive-sampling overhead budget, sliced fairly across \
           active tenants; each job's governor gets its tenant's slice.")

let self_test_arg =
  Arg.(
    value & flag
    & info [ "self-test" ]
        ~doc:
          "Boot a daemon on a private socket, submit one job through the \
           socket client, scrape /metrics over HTTP and shut down; exits \
           nonzero if any step fails (the CI smoke test).")

let run_serve listen capacity quota workers budget self_test =
  with_valid_knobs @@ fun () ->
  Pasta_tools.Tools.register_all ();
  if self_test then (
    match Pasta.Serve.self_test () with
    | Ok () ->
        Format.printf "[accelprof] serve self-test ok@.";
        `Ok ()
    | Error msg -> `Error (false, Printf.sprintf "serve self-test: %s" msg))
  else
    let addr = resolve_addr listen in
    let t = Pasta.Serve.create ?capacity ?quota ?workers ?budget () in
    match Pasta.Serve.listen t addr with
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "[accelprof] cannot listen on %s: %s@."
          (Pasta.Serve.addr_to_string addr)
          (Unix.error_message e);
        exit Pasta.Exit_code.unavailable
    | () ->
        Format.printf
          "[accelprof] serving on %s (accelprof submit/stat; GET /metrics)@."
          (Pasta.Serve.addr_to_string addr);
        Pasta.Serve.join t;
        `Ok ()

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the long-lived multi-tenant profiling daemon: accepts jobs \
          over a local socket (newline-delimited JSON), schedules them \
          tenant-fair with admission control, and serves live Prometheus \
          metrics with per-tenant label namespaces")
    Term.(
      ret
        (const run_serve $ listen_arg $ capacity_arg $ quota_arg $ workers_arg
       $ serve_budget_arg $ self_test_arg))

let tenant_arg =
  Arg.(
    value
    & opt string "default"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant to submit as; quotas, metrics and budget slices are per tenant.")

let knob_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string string) []
    & info [ "knob" ] ~docv:"KEY=VALUE"
        ~doc:
          "Session-scoped config override for this job (repeatable); only \
           keys in Pasta.Config.session_knob_keys are accepted — \
           process-global knobs are rejected at submit time.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-us" ] ~docv:"US"
        ~doc:
          "Simulated-time budget for the job; enforcement happens at \
           kernel-launch boundaries and overruns finish as \
           $(b,deadline).")

let submit_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.ptrace"
        ~doc:
          "Capture the job's op stream server-side to this file, flushed \
           incrementally chunk by chunk while the job runs.")

let no_wait_arg =
  Arg.(
    value & flag
    & info [ "no-wait" ]
        ~doc:"Return immediately after admission instead of waiting for the result.")

let submit_gpu_arg =
  Arg.(
    value
    & opt string "a100"
    & info [ "gpu" ] ~docv:"GPU"
        ~doc:"Simulated GPU: a100, rtx3060, mi300x or tpu_v4.")

let run_submit connect tenant tool mode iters gpu knobs deadline trace no_wait
    model =
  match model with
  | None -> `Error (true, "a MODEL argument is required")
  | Some model -> (
      let addr = resolve_addr connect in
      match Pasta.Serve.Client.connect addr with
      | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "[accelprof] cannot reach %s: %s@."
            (Pasta.Serve.addr_to_string addr)
            (Unix.error_message e);
          exit Pasta.Exit_code.unavailable
      | c -> (
          let close_and v =
            Pasta.Serve.Client.close c;
            v
          in
          let spec =
            {
              Pasta.Serve.Proto.tenant;
              model;
              tool;
              train = (mode = Dlfw.Runner.Train);
              iters;
              gpu;
              knobs;
              deadline_us = deadline;
              trace;
            }
          in
          let resp =
            Pasta.Serve.Client.request c (Pasta.Serve.Proto.Submit spec)
          in
          match Pasta_util.Njson.int_field "id" resp with
          | None ->
              let msg =
                Option.value
                  (Pasta_util.Njson.str_field "error" resp)
                  ~default:(Pasta_util.Njson.to_string resp)
              in
              Format.eprintf "[accelprof] submit: %s@." msg;
              close_and ();
              exit
                (Option.value
                   (Pasta_util.Njson.int_field "code" resp)
                   ~default:Pasta.Exit_code.failure)
          | Some id ->
              Format.printf "[accelprof] job %d submitted (tenant %s, %s)@." id
                tenant model;
              if no_wait then close_and (`Ok ())
              else
                let rec poll () =
                  let r =
                    Pasta.Serve.Client.request c (Pasta.Serve.Proto.Result id)
                  in
                  match Pasta_util.Njson.str_field "state" r with
                  | Some "pending" ->
                      Unix.sleepf 0.1;
                      poll ()
                  | _ -> r
                in
                let r = poll () in
                close_and ();
                (match Pasta_util.Njson.str_field "outcome" r with
                | Some "completed" ->
                    (match Pasta_util.Njson.mem "summary" r with
                    | Some s ->
                        (match Pasta_util.Njson.str_field "report" s with
                        | Some report -> print_string report
                        | None -> ());
                        Format.printf
                          "[accelprof] job %d done: %d kernels, %d events, %.2f \
                           ms simulated@."
                          id
                          (Option.value
                             (Pasta_util.Njson.int_field "kernels" s)
                             ~default:0)
                          (Option.value
                             (Pasta_util.Njson.int_field "events_seen" s)
                             ~default:0)
                          (Option.value
                             (Pasta_util.Njson.float_field "elapsed_us" s)
                             ~default:0.0
                          /. 1000.0)
                    | None -> ());
                    `Ok ()
                | Some outcome ->
                    Format.eprintf "[accelprof] job %d finished %s%s@." id outcome
                      (match Pasta_util.Njson.str_field "error" r with
                      | Some e -> ": " ^ e
                      | None -> "");
                    exit Pasta.Exit_code.job_failed
                | None ->
                    `Error
                      ( false,
                        "malformed response: " ^ Pasta_util.Njson.to_string r ))))

let submit_cmd =
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "submit a profile job to a running accelprof serve daemon and (by \
          default) wait for its report; admission rejects exit 5, failed or \
          cancelled jobs exit 6")
    Term.(
      ret
        (const run_submit $ connect_arg $ tenant_arg $ tool_arg $ mode_arg
       $ iters_arg $ submit_gpu_arg $ knob_arg $ deadline_arg
       $ submit_trace_arg $ no_wait_arg $ model_pos 0))

let stat_id_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "id" ] ~docv:"JOB" ~doc:"Show one job's status instead of daemon health.")

let scrape_arg =
  Arg.(
    value & flag
    & info [ "scrape" ] ~doc:"Print the daemon's Prometheus exposition (GET /metrics).")

let shutdown_arg =
  Arg.(
    value & flag
    & info [ "shutdown" ]
        ~doc:
          "Ask the daemon to shut down: running jobs abort at their next \
           kernel boundary, queued jobs finish cancelled.")

let run_serve_stat connect id scrape shutdown =
  let addr = resolve_addr connect in
  if scrape then (
    match Pasta.Serve.Client.scrape_http addr with
    | body ->
        print_string body;
        `Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "[accelprof] cannot reach %s: %s@."
          (Pasta.Serve.addr_to_string addr)
          (Unix.error_message e);
        exit Pasta.Exit_code.unavailable)
  else
    match Pasta.Serve.Client.connect addr with
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "[accelprof] cannot reach %s: %s@."
          (Pasta.Serve.addr_to_string addr)
          (Unix.error_message e);
        exit Pasta.Exit_code.unavailable
    | c ->
        let req =
          match id with
          | _ when shutdown -> Pasta.Serve.Proto.Shutdown
          | Some id -> Pasta.Serve.Proto.Status id
          | None -> Pasta.Serve.Proto.Health
        in
        let resp = Pasta.Serve.Client.request c req in
        Pasta.Serve.Client.close c;
        print_endline (Pasta_util.Njson.to_string resp);
        if Pasta_util.Njson.bool_field "ok" resp = Some false then
          exit Pasta.Exit_code.failure;
        `Ok ()

let serve_stat_cmd =
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "query a running accelprof serve daemon: health and per-tenant queue \
          depths by default, one job with $(b,--id), the Prometheus \
          exposition with $(b,--scrape)")
    Term.(
      ret
        (const run_serve_stat $ connect_arg $ stat_id_arg $ scrape_arg
       $ shutdown_arg))

let main_cmd =
  Cmd.group ~default:profile_term
    (Cmd.info "accelprof" ~version:"1.0.0"
       ~doc:"run a PASTA analysis tool against a simulated DL workload")
    [ record_cmd; replay_cmd; trace_cmd; serve_cmd; submit_cmd; serve_stat_cmd ]

let () =
  (* "list-tools" is a convenience alias; everything else goes through the
     cmdliner term. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "list-tools" then begin
    Pasta_tools.Tools.register_all ();
    List.iter print_endline (Pasta.Registry.names ())
  end
  else
    let code = Cmd.eval main_cmd in
    (* A run that succeeded but lost data (quarantined tools, dropped
       records, missing fleet devices) exits "degraded" rather than 0. *)
    exit
      (if code = Pasta.Exit_code.ok && !degraded then Pasta.Exit_code.degraded
       else code)
