type watchdog = {
  probe_name : string;
  limit_us : float;
  mutable trips : (string * float) list; (* kernel name, duration; newest first *)
}

(* One backend's share of a session: its device, vendor backend,
   framework hooks, processor and tool, and whatever attaching changed on
   the device that detaching must restore. *)
type sub = {
  device : Gpusim.Device.t;
  backend : Backend.t;
  dl : Dl_hooks.t;
  proc : Processor.t;
  the_tool : Tool.t;
  owner_thread : int;
      (* systhread that attached; start/end_ annotations resolve the
         calling thread's innermost session, so concurrent tenants'
         annotations never cross *)
  start_us : float;
  saved_sample_cap : int;
  saved_sample_rate : float;
  saved_regions : Gpusim.Instrpass.granularity;
  sampler : Sampler.t option;
  sampler_probe : string option;
      (* the governor's hook-bus probe name, for teardown *)
  saved_pool : Pasta_util.Domain_pool.t option;
      (* whatever pool the device had before we attached *)
  dog : watchdog;
  installed_faults : Gpusim.Faults.t option;
      (* the injector this session installed (and must tear down) *)
}

(* A session: one [sub] per backend in attach order (a backend's id is
   its list position) and the one capture riding on their processors. *)
type t = { subs : sub list; capture : Capture.t option }

type health = {
  guard_state : string;
  tool_failures : int;
  failures_by_callback : (string * int) list;
  quarantines : int;
  reinstated : int;
  events_suppressed : int;
  records_dropped : int;
  records_buffered_peak : int;
  accesses_filtered : int;
  batches_delivered : int;
  domains : int;
  buffer_capacity : int;
  overflow_policy : string;
  buffer_stalls : int;
  watchdog_trips : (string * float) list;
  fault_stats : Gpusim.Faults.stats option;
  incidents : Event.t list;
  events_recorded : int;
  bytes_written : int;
  chunks : int;
  chunks_skipped : int;
  replay_events : int;
  sampling : Sampler.snapshot option;
}

type result = {
  tool_name : string;
  phases : Vendor.Phases.t;
  events_seen : int;
  events_dispatched : int;
  kernels : int;
  elapsed_us : float;
  health : health;
  metrics : Pasta_util.Metric.t;
  report : Format.formatter -> unit;
}

type multi_result = {
  mr_backends : (string * result) list; (* label, per-backend result *)
  mr_report : Format.formatter -> unit;
}

(* Sessions are re-entrant under one process: many may be attached at
   once, from different threads (the serve daemon's workers).  The only
   cross-session state is this supervision list of attached backends, so
   it is mutex-protected; everything else a session touches (device,
   processor, tool, capture) is per-session.  Probe names come from an
   atomic counter so two concurrent attaches never collide. *)
let active : sub list ref = ref []
let active_mu = Mutex.create ()

let with_active f =
  Mutex.lock active_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock active_mu) f

let watchdog_counter = Atomic.make 0

(* A pipeline counter as the processor's registry holds it. *)
let counter proc name =
  Option.value ~default:0
    (Pasta_util.Metric.find_counter (Processor.metrics proc)
       ~labels:(Processor.metric_labels proc) name)

(* The count rule: one backend is unlabelled.  With two or more, each is
   labelled with its backend kind, suffixed with its position when a
   kind repeats, so metric series and trace tracks stay
   distinguishable. *)
let labels specs =
  match specs with
  | [ _ ] -> [ None ]
  | _ ->
      let names = List.map (fun (kind, _) -> Backend.kind_to_string kind) specs in
      List.mapi
        (fun i name ->
          if List.length (List.filter (String.equal name) names) > 1 then
            Some (Printf.sprintf "%s#%d" name i)
          else Some name)
        names

(* Wire one backend's device to its processor and install the session's
   device settings; the processor already carries its tool and sink. *)
let attach_backend ?sample_cap ?sample_rate ?overhead_budget ?faults ~regions
    (kind, device, proc, tool) =
  (* Self-telemetry: honour the knob as configured right now, and mirror
     the device's simulated clock onto spans so exports can bridge the
     wall and simulated timelines. *)
  Telemetry.refresh_level ();
  (* Spans recorded while this session is attached carry the device id. *)
  Telemetry.set_device (Gpusim.Device.id device);
  if Telemetry.enabled () then
    Gpusim.Clock.set_observer
      (Gpusim.Device.clock device)
      (Some Telemetry.note_sim_us);
  (* Fault injection: an explicit injector wins; otherwise the config knob
     turns on a seeded one — but never stack a second injector onto a
     device that already has one (e.g. a tracer session riding along). *)
  let installed_faults =
    match (faults, Gpusim.Device.faults device) with
    | Some f, None ->
        Gpusim.Device.set_faults device f;
        Some f
    | None, None when Config.inject_faults () ->
        let f = Gpusim.Faults.create ~seed:(Config.fault_seed ()) () in
        Gpusim.Device.set_faults device f;
        Some f
    | _ -> None
  in
  let b = Backend.attach kind device ~processor:proc in
  Backend.enable_fine_grained b tool.Tool.fine_grained;
  let dl = Dl_hooks.attach device ~processor:proc in
  let saved_sample_cap = Gpusim.Device.sample_cap device in
  (* Parallel preprocessing: one process-wide pool, persistent across
     sessions; results are identical for every pool size, so installing
     it is purely a throughput decision. *)
  let saved_pool = Gpusim.Device.pool device in
  let dsize = Config.domains () in
  if dsize > 1 then begin
    let p = Pasta_util.Domain_pool.global ~size:dsize in
    Gpusim.Device.set_pool device p;
    Processor.set_pool proc p
  end;
  (match (sample_cap, Config.sample_cap ()) with
  | Some r, _ | None, Some r -> Gpusim.Device.set_sample_cap device r
  | None, None -> ());
  (* Intra-kernel region probes: the knob configures the device's
     instrumentation granularity for the session; [Off] (the default)
     leaves the device untouched and runs byte-identical. *)
  let saved_regions = Gpusim.Device.regions device in
  (match regions with
  | Gpusim.Instrpass.Off -> ()
  | g -> Gpusim.Device.set_regions device g);
  (* Adaptive sampling: a fixed rate or an overhead budget (argument or
     environment) installs a governor.  The governor's probe runs at
     launch boundaries: at Launch_begin it records any rate change
     through the processor (so the schedule lands in captures) and points
     the device at the new rate *before* materialization reads it; at
     Launch_end it feeds the elapsed window back into the controller. *)
  let saved_sample_rate = Gpusim.Device.sample_rate device in
  let probe_id = Atomic.fetch_and_add watchdog_counter 1 in
  let sampler = Sampler.of_config ?rate:sample_rate ?budget:overhead_budget () in
  let sampler_probe =
    match sampler with
    | None -> None
    | Some g ->
        let name = Printf.sprintf "pasta-sampler-%d" probe_id in
        Gpusim.Device.add_probe device
          {
            Gpusim.Device.probe_name = name;
            on_event =
              (function
              | Gpusim.Device.Launch_begin info ->
                  let r = Sampler.rate g in
                  if r <> Processor.current_sample_rate proc then
                    Processor.note_rate proc
                      ~time_us:(Gpusim.Device.now_us device)
                      ~grid_id:info.Gpusim.Device.grid_id r;
                  Gpusim.Device.set_sample_rate device r
              | Gpusim.Device.Launch_end _ ->
                  Sampler.observe g
                    ~dropped:(counter proc "pasta_records_dropped")
                    ~stalls:(counter proc "pasta_buffer_stalls")
              | _ -> ());
          };
        Some name
  in
  let dog =
    {
      probe_name = Printf.sprintf "pasta-watchdog-%d" probe_id;
      limit_us = Config.watchdog_us ();
      trips = [];
    }
  in
  (* The watchdog listens on the raw hook bus: a kernel whose duration
     blows past the limit is flagged even if the tool never sees it. *)
  Gpusim.Device.add_probe device
    {
      Gpusim.Device.probe_name = dog.probe_name;
      on_event =
        (function
        | Gpusim.Device.Launch_end (info, stats)
          when stats.Gpusim.Device.duration_us > dog.limit_us ->
            dog.trips <-
              (info.Gpusim.Device.kernel.Gpusim.Kernel.name, stats.Gpusim.Device.duration_us)
              :: dog.trips
        | _ -> ());
    };
  let s =
    {
      device;
      backend = b;
      dl;
      proc;
      the_tool = tool;
      owner_thread = Thread.id (Thread.self ());
      start_us = Gpusim.Device.now_us device;
      saved_sample_cap;
      saved_sample_rate;
      saved_regions;
      sampler;
      sampler_probe;
      saved_pool;
      dog;
      installed_faults;
    }
  in
  with_active (fun () -> active := s :: !active);
  s

let attach_multi ?range ?sample_cap ?sample_rate ?overhead_budget ?faults
    ?capture ?capture_meta ~tool specs =
  (* Device identity is load-bearing: the framework hook bus filters by
     device id, metric series carry it, and the unified trace uses it as
     the track-group pid.  Two backends sharing an id would silently
     cross-feed each other's framework events. *)
  let ids = List.map (fun (_, d) -> Gpusim.Device.id d) specs in
  if ids = [] then invalid_arg "Session.attach_multi: no backends";
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg
      "Session.attach_multi: backends must use distinct device ids (create \
       devices with Gpusim.Device.create ~id:...)";
  (* Enumerated knobs raise on a bad value, and a backend may refuse its
     device or its tool's analysis model: settle both before anything is
     created or attached, so a refusal leaves every device untouched.
     Each processor's breaker reads the guard knobs again. *)
  let regions = Config.regions () in
  ignore (Config.guard_threshold ());
  ignore (Config.guard_cooldown_kernels ());
  let tools = List.map (fun (kind, device) -> tool kind device) specs in
  List.iter2
    (fun (kind, device) tool ->
      Option.iter invalid_arg (Backend.refusal kind device tool.Tool.fine_grained))
    specs tools;
  let members =
    List.map2
      (fun ((kind, device), tool) label ->
        let proc = Processor.create ?range ?label ~device:(Gpusim.Device.id device) () in
        Processor.set_tool proc tool;
        (kind, device, proc, tool))
      (List.combine specs tools) (labels specs)
  in
  let procs = List.map (fun (_, _, proc, _) -> proc) members in
  (* Trace capture: an explicit path wins; otherwise the ACCEL_PROF_TRACE
     knob streams the session, as a whole, to its file.  The sinks are
     installed before any backend attaches, so the very first event of
     the run is already on tape, and before anything touches a device, so
     a refused chunk-size knob leaves every device untouched. *)
  let capture =
    match (capture, Config.trace_path ()) with
    | Some path, _ | None, Some path ->
        let meta =
          match (capture_meta, members) with
          | Some m, _ -> m
          | None, [ (_, _, _, tool) ] -> tool.Tool.name
          | None, _ -> String.concat "+" (List.filter_map Processor.backend_label procs)
        in
        Some (Capture.start ~meta procs path)
    | None, None -> None
  in
  {
    subs =
      List.map
        (attach_backend ?sample_cap ?sample_rate ?overhead_budget ?faults ~regions)
        members;
    capture;
  }

let attach ?backend ?range ?sample_cap ?sample_rate ?overhead_budget ?faults
    ?capture ?capture_meta ~tool device =
  let kind =
    match backend with
    | Some k -> k
    | None -> Backend.default_kind_for ~fine_grained:tool.Tool.fine_grained device
  in
  attach_multi ?range ?sample_cap ?sample_rate ?overhead_budget ?faults ?capture
    ?capture_meta
    ~tool:(fun _ _ -> tool)
    [ (kind, device) ]

let health_of s =
  let counter = counter s.proc in
  let g = Processor.guard s.proc in
  {
    guard_state =
      (match g with Some g -> Guard.state_name (Guard.state g) | None -> "closed");
    tool_failures = counter "pasta_tool_failures";
    failures_by_callback =
      (match g with Some g -> Guard.failures_by_callback g | None -> []);
    quarantines = (match g with Some g -> Guard.quarantine_count g | None -> 0);
    reinstated = (match g with Some g -> Guard.reinstated_count g | None -> 0);
    events_suppressed = counter "pasta_events_suppressed";
    records_dropped = counter "pasta_records_dropped";
    records_buffered_peak =
      int_of_float
        (Option.value ~default:0.0
           (Pasta_util.Metric.find_gauge (Processor.metrics s.proc)
              ~labels:(Processor.metric_labels s.proc)
              "pasta_records_buffered_peak"));
    accesses_filtered = counter "pasta_accesses_filtered";
    batches_delivered = counter "pasta_batches_delivered";
    domains =
      (match Gpusim.Device.pool s.device with
      | Some p -> Pasta_util.Domain_pool.size p
      | None -> 1);
    buffer_capacity = Processor.buffer_capacity s.proc;
    overflow_policy =
      Config.overflow_to_string (Processor.overflow_policy s.proc);
    buffer_stalls = counter "pasta_buffer_stalls";
    watchdog_trips = List.rev s.dog.trips;
    fault_stats = Option.map Gpusim.Faults.stats (Gpusim.Device.faults s.device);
    incidents = Processor.incidents s.proc;
    events_recorded = counter "pasta_events_recorded";
    bytes_written = counter "pasta_bytes_written";
    chunks = counter "pasta_trace_chunks";
    chunks_skipped = counter "pasta_trace_chunks_skipped";
    replay_events = counter "pasta_replay_events";
    sampling = Option.map Sampler.snapshot s.sampler;
  }

let pp_health ppf h =
  Format.fprintf ppf "pipeline health: guard %s, %d tool failure%s" h.guard_state
    h.tool_failures
    (if h.tool_failures = 1 then "" else "s");
  if h.failures_by_callback <> [] then begin
    Format.fprintf ppf " (";
    List.iteri
      (fun i (cb, n) -> Format.fprintf ppf "%s%s x%d" (if i > 0 then ", " else "") cb n)
      h.failures_by_callback;
    Format.fprintf ppf ")"
  end;
  Format.fprintf ppf "@.";
  if h.quarantines > 0 || h.reinstated > 0 then
    Format.fprintf ppf "  quarantined %d time%s, reinstated %d, %d events suppressed@."
      h.quarantines
      (if h.quarantines = 1 then "" else "s")
      h.reinstated h.events_suppressed;
  Format.fprintf ppf "  record buffer: cap %d (%s), peak %d, dropped %d, stalls %d@."
    h.buffer_capacity h.overflow_policy h.records_buffered_peak h.records_dropped
    h.buffer_stalls;
  Format.fprintf ppf "  preprocessing: %d domain%s, %d record%s range-filtered, %d batch%s delivered@."
    h.domains
    (if h.domains = 1 then "" else "s")
    h.accesses_filtered
    (if h.accesses_filtered = 1 then "" else "s")
    h.batches_delivered
    (if h.batches_delivered = 1 then "" else "es");
  if h.events_recorded > 0 then
    Format.fprintf ppf "  trace capture: %d op%s, %d bytes, %d chunk%s@."
      h.events_recorded
      (if h.events_recorded = 1 then "" else "s")
      h.bytes_written h.chunks
      (if h.chunks = 1 then "" else "s");
  if h.replay_events > 0 then
    Format.fprintf ppf "  trace replay: %d op%s, %d chunk%s, %d skipped@."
      h.replay_events
      (if h.replay_events = 1 then "" else "s")
      h.chunks
      (if h.chunks = 1 then "" else "s")
      h.chunks_skipped;
  (match h.watchdog_trips with
  | [] -> ()
  | trips ->
      Format.fprintf ppf "  watchdog: %d stuck kernel%s" (List.length trips)
        (if List.length trips = 1 then "" else "s");
      List.iteri
        (fun i (name, dur) ->
          if i < 3 then Format.fprintf ppf "%s %s (%.0fus)" (if i > 0 then "," else "") name dur)
        trips;
      Format.fprintf ppf "@.");
  (match h.sampling with
  | None -> ()
  | Some sn -> Format.fprintf ppf "  %a@." Sampler.pp_snapshot sn);
  match h.fault_stats with
  | None -> ()
  | Some fs -> Format.fprintf ppf "  injected faults: %a@." Gpusim.Faults.pp_stats fs

(* Unregister a backend.  Its device keeps the clock observer while
   another session still profiles it (e.g. a tracer riding along); the
   last one drops it. *)
let release s =
  let device_still_profiled =
    with_active (fun () ->
        active := List.filter (fun x -> x != s) !active;
        List.exists (fun x -> x.device == s.device) !active)
  in
  if not device_still_profiled then begin
    Gpusim.Clock.set_observer (Gpusim.Device.clock s.device) None;
    if Telemetry.current_device () = Gpusim.Device.id s.device then
      Telemetry.set_device (-1)
  end

(* Tear one backend down and restore its device; the capture is closed
   and the processor flushed, so every counter is final. *)
let detach_backend s =
  Dl_hooks.detach s.dl;
  let health = health_of s in
  let phases = Vendor.Phases.add (Vendor.Phases.create ()) (Backend.phases s.backend) in
  phases.Vendor.Phases.dropped_records <-
    phases.Vendor.Phases.dropped_records + health.records_dropped;
  Backend.detach s.backend;
  Gpusim.Device.remove_probe s.device s.dog.probe_name;
  (match s.installed_faults with
  | Some _ -> Gpusim.Device.clear_faults s.device
  | None -> ());
  Gpusim.Device.set_sample_cap s.device s.saved_sample_cap;
  Option.iter (Gpusim.Device.remove_probe s.device) s.sampler_probe;
  Gpusim.Device.set_sample_rate s.device s.saved_sample_rate;
  Gpusim.Device.set_regions s.device s.saved_regions;
  (* The global pool itself stays warm for the next session; only the
     device's installation reverts. *)
  (match s.saved_pool with
  | Some p -> Gpusim.Device.set_pool s.device p
  | None -> Gpusim.Device.clear_pool s.device);
  Processor.clear_pool s.proc;
  Processor.sync_objmap_metrics s.proc;
  let report =
    match Processor.guard s.proc with
    | Some g -> Guard.guarded_report g
    | None -> s.the_tool.Tool.report
  in
  {
    tool_name = s.the_tool.Tool.name;
    phases;
    events_seen = counter s.proc "pasta_events_seen";
    events_dispatched = counter s.proc "pasta_events_dispatched";
    kernels = counter s.proc "pasta_kernels_seen";
    elapsed_us = Gpusim.Device.now_us s.device -. s.start_us;
    health;
    metrics = Processor.metrics s.proc;
    report;
  }

let detach_multi t =
  List.iter release t.subs;
  (* Anything still sitting in a bounded buffer belongs to its tool. *)
  List.iter (fun s -> Processor.flush_records s.proc) t.subs;
  (* Close the trace before health is sampled so the capture counters
     are final. *)
  Option.iter Capture.finish t.capture;
  let results =
    List.map
      (fun s -> (Option.value ~default:"" (Processor.backend_label s.proc), detach_backend s))
      t.subs
  in
  (* The count rule: one backend reports as a solo run; several report
     each under its label. *)
  let report ppf =
    match results with
    | [ (_, r) ] -> r.report ppf
    | _ ->
        List.iter
          (fun (label, r) ->
            Format.fprintf ppf "=== backend %s ===@." label;
            r.report ppf)
          results
  in
  { mr_backends = results; mr_report = report }

let detach t =
  match t.subs with
  | [ _ ] -> snd (List.hd (detach_multi t).mr_backends)
  | _ -> invalid_arg "Session.detach: several backends (use detach_multi)"

(* Attach, run the workload, detach — even on exception. *)
let running detach t f =
  match f () with
  | v -> (v, detach t)
  | exception e ->
      ignore (detach t);
      raise e

let run_multi ?range ?sample_cap ?sample_rate ?overhead_budget ?faults ?capture
    ?capture_meta ~tool specs f =
  running detach_multi
    (attach_multi ?range ?sample_cap ?sample_rate ?overhead_budget ?faults ?capture
       ?capture_meta ~tool specs)
    f

let run ?backend ?range ?sample_cap ?sample_rate ?overhead_budget ?faults
    ?capture ?capture_meta ~tool device f =
  running detach
    (attach ?backend ?range ?sample_cap ?sample_rate ?overhead_budget ?faults
       ?capture ?capture_meta ~tool device)
    f

let processor t = (List.hd t.subs).proc

(* Annotations resolve the calling thread's innermost session: under the
   serve daemon several sessions are live at once, and a workload's
   start/end_ markers must land in its own trace, not whichever session
   attached last.  A thread with no session of its own falls back to the
   newest session overall, which preserves the single-tenant behaviour of
   annotating from helper threads. *)
let calling_session () =
  let me = Thread.id (Thread.self ()) in
  with_active (fun () ->
      match List.find_opt (fun s -> s.owner_thread = me) !active with
      | Some s -> Some s
      | None -> ( match !active with [] -> None | s :: _ -> Some s))

let start ?(label = "region") () =
  match calling_session () with
  | None -> ()
  | Some s ->
      Processor.annot_start s.proc ~time_us:(Gpusim.Device.now_us s.device) label

let end_ ?(label = "region") () =
  match calling_session () with
  | None -> ()
  | Some s ->
      Processor.annot_end s.proc ~time_us:(Gpusim.Device.now_us s.device) label
