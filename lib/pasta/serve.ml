(* The serve daemon: many tenants, one process.  Each job runs in its own
   Session on a fresh simulated device, on one of a small pool of executor
   systhreads; tenant knobs apply through a thread-scoped Config overlay,
   host call stacks are per-thread (Gpusim.Hostctx), and preprocessing
   multiplexes onto the shared Domain_pool, which serializes concurrent
   submitters.  The only cross-tenant state is the scheduler itself. *)

module Njson = Pasta_util.Njson
module Jobq = Pasta_util.Jobq
module Metric = Pasta_util.Metric

(* --- wire protocol ---------------------------------------------------- *)

module Proto = struct
  type submit = {
    tenant : string;
    model : string;
    tool : string option;
    train : bool;
    iters : int option;
    gpu : string;
    knobs : (string * string) list;
    deadline_us : float option;
    trace : string option;
  }

  type request =
    | Submit of submit
    | Status of int
    | Cancel of int
    | Result of int
    | Health
    | Shutdown

  let request_to_json = function
    | Submit s ->
        let opt f = function Some v -> [ f v ] | None -> [] in
        Njson.Obj
          ([ ("op", Njson.Str "submit");
             ("tenant", Njson.Str s.tenant);
             ("model", Njson.Str s.model) ]
          @ opt (fun t -> ("tool", Njson.Str t)) s.tool
          @ [ ("mode", Njson.Str (if s.train then "train" else "inference")) ]
          @ opt (fun n -> ("iters", Njson.Int n)) s.iters
          @ [ ("gpu", Njson.Str s.gpu) ]
          @ (if s.knobs = [] then []
             else
               [ ( "knobs",
                   Njson.Obj (List.map (fun (k, v) -> (k, Njson.Str v)) s.knobs) )
               ])
          @ opt (fun d -> ("deadline_us", Njson.Float d)) s.deadline_us
          @ opt (fun p -> ("trace", Njson.Str p)) s.trace)
    | Status id -> Njson.Obj [ ("op", Njson.Str "status"); ("id", Njson.Int id) ]
    | Cancel id -> Njson.Obj [ ("op", Njson.Str "cancel"); ("id", Njson.Int id) ]
    | Result id -> Njson.Obj [ ("op", Njson.Str "result"); ("id", Njson.Int id) ]
    | Health -> Njson.Obj [ ("op", Njson.Str "health") ]
    | Shutdown -> Njson.Obj [ ("op", Njson.Str "shutdown") ]

  let submit_of_json j =
    let req name = function
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "submit: missing or ill-typed %S" name)
    in
    (* An optional field may be absent; a present one must be well typed,
       never silently dropped. *)
    let opt name field =
      match Njson.mem name j with
      | None -> Ok None
      | Some _ -> Result.map Option.some (req name (field name j))
    in
    let ( let* ) = Result.bind in
    let* tenant = req "tenant" (Njson.str_field "tenant" j) in
    let* model = req "model" (Njson.str_field "model" j) in
    let* tool = opt "tool" Njson.str_field in
    let* mode = opt "mode" Njson.str_field in
    let* train =
      match mode with
      | None | Some "inference" -> Ok false
      | Some "train" -> Ok true
      | Some m -> Error (Printf.sprintf "submit: unknown mode %S" m)
    in
    let* iters = opt "iters" Njson.int_field in
    let* gpu = opt "gpu" Njson.str_field in
    let gpu = Option.value gpu ~default:"a100" in
    let* knobs =
      match Njson.mem "knobs" j with
      | None -> Ok []
      | Some (Njson.Obj kvs) ->
          let rec conv acc = function
            | [] -> Ok (List.rev acc)
            | (k, Njson.Str v) :: rest -> conv ((k, v) :: acc) rest
            | (k, _) :: _ ->
                Error (Printf.sprintf "submit: knob %S must be a string" k)
          in
          conv [] kvs
      | Some _ -> Error "submit: knobs must be an object"
    in
    let* deadline_us = opt "deadline_us" Njson.float_field in
    let* trace = opt "trace" Njson.str_field in
    Ok { tenant; model; tool; train; iters; gpu; knobs; deadline_us; trace }

  let request_of_json j =
    let with_id op k =
      match Njson.int_field "id" j with
      | Some id -> Ok (k id)
      | None -> Error (Printf.sprintf "%s: missing or ill-typed id" op)
    in
    match Njson.str_field "op" j with
    | Some "submit" -> Result.map (fun s -> Submit s) (submit_of_json j)
    | Some "status" -> with_id "status" (fun id -> Status id)
    | Some "cancel" -> with_id "cancel" (fun id -> Cancel id)
    | Some "result" -> with_id "result" (fun id -> Result id)
    | Some "health" -> Ok Health
    | Some "shutdown" -> Ok Shutdown
    | Some op -> Error (Printf.sprintf "unknown op %S" op)
    | None -> Error "missing op field"
end

(* --- job lifecycle ----------------------------------------------------- *)

type summary = {
  tool_name : string;
  kernels : int;
  events_seen : int;
  events_dispatched : int;
  elapsed_us : float;
  quarantines : int;
  records_dropped : int;
  report : string;
  counters : (string * (string * string) list * int) list;
}

type outcome =
  | Completed of summary
  | Failed of string
  | Cancelled
  | Deadline_exceeded

let outcome_name = function
  | Completed _ -> "completed"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Deadline_exceeded -> "deadline"

type state = Queued | Running | Done of outcome

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"

type job = {
  id : int;
  spec : Proto.submit;
  submitted_wall : float;
  mutable jstate : state;
  mutable cancel_flag : bool;
}

(* Raised by the abort probe at a kernel-launch boundary; carries the
   outcome the job should finish with. *)
exception Aborted of outcome

(* --- server ------------------------------------------------------------ *)

type t = {
  q : job Jobq.t;
  jobs : (int, job) Hashtbl.t;
  mu : Mutex.t;  (** guards [jobs], every [jstate], and metric mutations *)
  mutable next_id : int;
  reg : Metric.t;
  budget : float option;
  mutable workers : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable listen_fd : Unix.file_descr option;
  mutable listen_at : addr option;
  mutable stopping : bool;
  mutable stopped : bool;  (** a shutdown has run to its end *)
  stopped_cv : Condition.t;  (** signalled, under [mu], when [stopped] is set *)
}

and addr = Unix_sock of string | Tcp of string * int

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Metric handles are find-or-create, so per-tenant series materialize on
   first use; mutations happen under [t.mu] because executor systhreads
   interleave. *)
let m_counter t ?(labels = []) name =
  Metric.counter t.reg ~labels name

let tenant_labels tenant = [ ("tenant", tenant) ]

let observe_latency t tenant v =
  locked t (fun () ->
      Metric.observe
        (Metric.histogram t.reg ~labels:(tenant_labels tenant)
           ~help:"wall-clock submit-to-done latency per job"
           "accelprof_serve_job_latency_us")
        v)

let set_depth_gauges t =
  (* Callers hold [t.mu]. *)
  Metric.set_gauge
    (Metric.gauge t.reg ~help:"jobs queued" "accelprof_serve_queue_depth")
    (float_of_int (Jobq.length t.q));
  let running =
    Hashtbl.fold (fun _ j n -> if j.jstate = Running then n + 1 else n) t.jobs 0
  in
  Metric.set_gauge
    (Metric.gauge t.reg ~help:"jobs running" "accelprof_serve_jobs_running")
    (float_of_int running)

(* --- per-job execution ------------------------------------------------- *)

let arch_of_name name =
  match String.lowercase_ascii name with
  | "a100" -> Some Gpusim.Arch.a100
  | "rtx3060" -> Some Gpusim.Arch.rtx3060
  | "mi300x" -> Some Gpusim.Arch.mi300x
  | "tpu_v4" | "tpuv4" -> Some Gpusim.Arch.tpu_v4
  | _ -> None

(* Distinct tenants with work in flight — the denominator of the fair
   overhead-budget slice. *)
let active_tenants t =
  locked t (fun () ->
      let seen = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ j ->
          match j.jstate with
          | Queued | Running -> Hashtbl.replace seen j.spec.Proto.tenant ()
          | Done _ -> ())
        t.jobs;
      max 1 (Hashtbl.length seen))

(* The job's tool, else the overlay's PASTA_TOOL, as a registry name and a
   fresh instance.  Call it inside the job's overlay. *)
let job_tool (spec : Proto.submit) =
  let name = match spec.Proto.tool with Some _ as n -> n | None -> Config.tool_name () in
  match name with
  | None -> Error "no tool selected (set \"tool\" or the PASTA_TOOL knob)"
  | Some name -> (
      match Registry.find name with
      | Some mk -> Ok (name, mk ())
      | None ->
          Error
            (Printf.sprintf "unknown tool %S; available: %s" name
               (String.concat ", " (Registry.names ()))))

let run_job t (job : job) =
  let spec = job.spec in
  let arch =
    match arch_of_name spec.Proto.gpu with
    | Some a -> a
    | None -> failwith (Printf.sprintf "unknown gpu %S" spec.Proto.gpu)
  in
  let overhead_budget =
    Option.map
      (fun b ->
        Sampler.fleet_slice ~budget:b ~spent_frac:0.0
          ~shards_left:(active_tenants t))
      t.budget
  in
  (* The tenant's knobs are visible only on this thread and only for the
     dynamic extent of the job: Session.attach resolves every config read
     inside the overlay. *)
  Config.with_overlay spec.Proto.knobs (fun () ->
      let tool_key, tool = match job_tool spec with Ok r -> r | Error e -> failwith e in
      let device = Gpusim.Device.create arch in
      let ctx = Dlfw.Ctx.create device in
      (* Stale frames from a previous job on this worker thread must not
         leak into this tenant's call stacks. *)
      Gpusim.Hostctx.clear ();
      let t0 = Gpusim.Device.now_us device in
      Gpusim.Device.add_probe device
        {
          Gpusim.Device.probe_name = Printf.sprintf "serve-abort-%d" job.id;
          on_event =
            (function
            | Gpusim.Device.Launch_end _ ->
                if job.cancel_flag then raise (Aborted Cancelled);
                (match spec.Proto.deadline_us with
                | Some d when Gpusim.Device.now_us device -. t0 > d ->
                    raise (Aborted Deadline_exceeded)
                | _ -> ())
            | _ -> ());
        };
      Fun.protect
        ~finally:(fun () -> Dlfw.Ctx.destroy ctx)
        (fun () ->
          let mode = if spec.Proto.train then Dlfw.Runner.Train else Dlfw.Runner.Inference in
          let iters =
            match spec.Proto.iters with
            | Some n -> n
            | None -> Dlfw.Runner.default_iters ~abbr:spec.Proto.model ~mode
          in
          let (), res =
            Session.run ?overhead_budget ?capture:spec.Proto.trace
              ~capture_meta:tool_key ~tool device (fun () ->
                let model = Dlfw.Runner.build ctx spec.Proto.model in
                Dlfw.Runner.run ctx model ~mode ~iters)
          in
          {
            tool_name = res.Session.tool_name;
            kernels = res.Session.kernels;
            events_seen = res.Session.events_seen;
            events_dispatched = res.Session.events_dispatched;
            elapsed_us = res.Session.elapsed_us;
            quarantines = res.Session.health.Session.quarantines;
            records_dropped = res.Session.health.Session.records_dropped;
            report = Format.asprintf "%t" res.Session.report;
            counters = Metric.counter_samples res.Session.metrics;
          }))

let finish t (job : job) outcome =
  let tenant = job.spec.Proto.tenant in
  locked t (fun () ->
      job.jstate <- Done outcome;
      Metric.incr
        (m_counter t
           ~labels:(("outcome", outcome_name outcome) :: tenant_labels tenant)
           "accelprof_serve_jobs_finished_total");
      (match outcome with
      | Completed s ->
          Metric.add
            (m_counter t ~labels:(tenant_labels tenant)
               "accelprof_serve_kernels_total")
            s.kernels;
          Metric.add
            (m_counter t ~labels:(tenant_labels tenant)
               "accelprof_serve_quarantines_total")
            s.quarantines;
          Metric.add
            (m_counter t ~labels:(tenant_labels tenant)
               "accelprof_serve_records_dropped_total")
            s.records_dropped
      | _ -> ());
      set_depth_gauges t);
  observe_latency t tenant ((Unix.gettimeofday () -. job.submitted_wall) *. 1e6)

let exec t (job : job) =
  let skip =
    locked t (fun () ->
        if t.stopping || job.cancel_flag then true
        else begin
          job.jstate <- Running;
          set_depth_gauges t;
          false
        end)
  in
  if skip then finish t job Cancelled
  else
    let outcome =
      match run_job t job with
      | s -> Completed s
      | exception Aborted o -> o
      | exception e -> Failed (Printexc.to_string e)
    in
    finish t job outcome

let worker_loop t =
  let rec go () =
    match Jobq.pop t.q with
    | None -> ()
    | Some job ->
        exec t job;
        go ()
  in
  go ()

(* --- public in-process API --------------------------------------------- *)

let create ?capacity ?quota ?workers ?budget () =
  let capacity = match capacity with Some c -> c | None -> Config.serve_capacity () in
  let quota = match quota with Some q -> q | None -> Config.serve_quota () in
  let nworkers = match workers with Some w -> max 1 w | None -> Config.serve_workers () in
  let t =
    {
      q = Jobq.create ~capacity ~quota ();
      jobs = Hashtbl.create 64;
      mu = Mutex.create ();
      next_id = 1;
      reg = Metric.create ();
      budget;
      workers = [];
      accept_thread = None;
      listen_fd = None;
      listen_at = None;
      stopping = false;
      stopped = false;
      stopped_cv = Condition.create ();
    }
  in
  t.workers <- List.init nworkers (fun _ -> Thread.create worker_loop t);
  locked t (fun () -> set_depth_gauges t);
  t

(* Everything a job can be refused for before it runs: its fields, its
   knobs, its tool, and the default backend's verdict on that tool on a
   device of the job's arch (the CLI refuses the same combinations). *)
let validate (s : Proto.submit) =
  if s.Proto.tenant = "" then Error "tenant must be non-empty"
  else if not (List.mem s.Proto.model Dlfw.Runner.all_abbrs) then
    Error
      (Printf.sprintf "unknown model %S; available: %s" s.Proto.model
         (String.concat ", " Dlfw.Runner.all_abbrs))
  else if (match s.Proto.iters with Some n -> n <= 0 | None -> false) then
    Error "iters must be positive"
  else if (match s.Proto.deadline_us with Some d -> d <= 0.0 | None -> false)
  then Error "deadline_us must be positive"
  else
    match
      List.find_opt
        (fun (k, _) -> not (List.mem k Config.session_knob_keys))
        s.Proto.knobs
    with
    | Some (k, _) ->
        Error
          (Printf.sprintf
             "knob %S is not session-scoped; tenants may only override: %s" k
             (String.concat ", " Config.session_knob_keys))
    | None -> (
        match arch_of_name s.Proto.gpu with
        | None -> Error (Printf.sprintf "unknown gpu %S" s.Proto.gpu)
        | Some arch ->
            Config.with_overlay s.Proto.knobs (fun () ->
                let ( let* ) = Result.bind in
                let* () = Config.validate () in
                let* _, tool = job_tool s in
                let device = Gpusim.Device.create arch in
                let fg = tool.Tool.fine_grained in
                match Backend.refusal (Backend.default_kind_for ~fine_grained:fg device) device fg with
                | Some msg -> Error msg
                | None -> Ok ()))

let submit t (spec : Proto.submit) =
  match validate spec with
  | Error e -> Error e
  | Ok () -> (
      let job =
        locked t (fun () ->
            let id = t.next_id in
            t.next_id <- id + 1;
            {
              id;
              spec;
              submitted_wall = Unix.gettimeofday ();
              jstate = Queued;
              cancel_flag = false;
            })
      in
      match Jobq.push t.q ~tenant:spec.Proto.tenant job with
      | Ok () ->
          locked t (fun () ->
              Hashtbl.replace t.jobs job.id job;
              Metric.incr
                (m_counter t
                   ~labels:(tenant_labels spec.Proto.tenant)
                   "accelprof_serve_jobs_submitted_total");
              set_depth_gauges t);
          Ok job.id
      | Error reject ->
          locked t (fun () ->
              Metric.incr
                (m_counter t
                   ~labels:
                     (("reason", Jobq.reject_name reject)
                     :: tenant_labels spec.Proto.tenant)
                   "accelprof_serve_jobs_rejected_total"));
          Error (Printf.sprintf "rejected: %s" (Jobq.reject_name reject)))

let status t id =
  locked t (fun () ->
      Option.map
        (fun j -> (j.spec.Proto.tenant, j.jstate))
        (Hashtbl.find_opt t.jobs id))

let cancel t id =
  match locked t (fun () -> Hashtbl.find_opt t.jobs id) with
  | None -> `Unknown
  | Some job -> (
      (* Try to pull it out of the queue first; if an executor already
         popped it, the flag aborts it at the next kernel boundary. *)
      match Jobq.remove t.q (fun j -> j.id = id) with
      | Some j ->
          finish t j Cancelled;
          `Cancelled
      | None ->
          locked t (fun () ->
              match job.jstate with
              | Done _ -> `Too_late
              | Queued | Running ->
                  job.cancel_flag <- true;
                  `Cancel_requested))

let result t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | Some { jstate = Done o; _ } -> Some o
      | _ -> None)

let wait ?(timeout_s = 60.0) t id =
  (* Polling keeps the locking story trivial: the executor threads only
     ever hold [t.mu] for short critical sections, and a 10 ms poll is
     far below job granularity. *)
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match result t id with
    | Some o -> Some o
    | None ->
        if status t id = None || Unix.gettimeofday () >= deadline then None
        else begin
          Thread.delay 0.01;
          go ()
        end
  in
  go ()

let scrape t =
  locked t (fun () ->
      Metric.incr (m_counter t "accelprof_serve_scrapes_total"));
  Metric.to_prometheus t.reg

let health_json t =
  locked t (fun () ->
      let states = Hashtbl.create 4 in
      Hashtbl.iter
        (fun _ j ->
          let k = state_name j.jstate in
          Hashtbl.replace states k (1 + Option.value (Hashtbl.find_opt states k) ~default:0))
        t.jobs;
      Njson.Obj
        [ ("ok", Njson.Bool true);
          ("queue_depth", Njson.Int (Jobq.length t.q));
          ("capacity", Njson.Int (Jobq.capacity t.q));
          ("tenant_quota", Njson.Int (Jobq.quota t.q));
          ("workers", Njson.Int (List.length t.workers));
          ( "tenants",
            Njson.Obj
              (List.map (fun (name, d) -> (name, Njson.Int d)) (Jobq.tenants t.q)) );
          ( "jobs",
            Njson.Obj
              (List.map
                 (fun k ->
                   (k, Njson.Int (Option.value (Hashtbl.find_opt states k) ~default:0)))
                 [ "queued"; "running"; "done" ]) )
        ])

(* --- socket endpoint --------------------------------------------------- *)

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Tcp ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Unix_sock s)
  | _ -> Unix_sock s

let addr_to_string = function
  | Unix_sock p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let sockaddr_of = function
  | Unix_sock p -> Unix.ADDR_UNIX p
  | Tcp (h, p) -> Unix.ADDR_INET (Unix.inet_addr_of_string h, p)

let error_json ?(code = Exit_code.failure) msg =
  Njson.Obj
    [ ("ok", Njson.Bool false); ("error", Njson.Str msg); ("code", Njson.Int code) ]

let summary_json s =
  Njson.Obj
    [ ("tool", Njson.Str s.tool_name);
      ("kernels", Njson.Int s.kernels);
      ("events_seen", Njson.Int s.events_seen);
      ("events_dispatched", Njson.Int s.events_dispatched);
      ("elapsed_us", Njson.Float s.elapsed_us);
      ("quarantines", Njson.Int s.quarantines);
      ("records_dropped", Njson.Int s.records_dropped);
      ("report", Njson.Str s.report);
      ( "counters",
        Njson.List
          (List.map
             (fun (name, labels, v) ->
               Njson.Obj
                 [ ("name", Njson.Str name);
                   ( "labels",
                     Njson.Obj (List.map (fun (k, lv) -> (k, Njson.Str lv)) labels)
                   );
                   ("value", Njson.Int v) ])
             s.counters) )
    ]

let outcome_json id o =
  let base =
    [ ("ok", Njson.Bool true); ("id", Njson.Int id);
      ("outcome", Njson.Str (outcome_name o)) ]
  in
  match o with
  | Completed s -> Njson.Obj (base @ [ ("summary", summary_json s) ])
  | Failed msg -> Njson.Obj (base @ [ ("error", Njson.Str msg) ])
  | Cancelled | Deadline_exceeded -> Njson.Obj base

(* One request -> one response.  [on_shutdown] is invoked after the
   response for Shutdown is produced, so the client hears the ack. *)
let dispatch t ~on_shutdown = function
  | Proto.Submit spec -> (
      match submit t spec with
      | Ok id -> Njson.Obj [ ("ok", Njson.Bool true); ("id", Njson.Int id) ]
      | Error msg ->
          let code =
            if String.length msg >= 8 && String.sub msg 0 8 = "rejected" then
              Exit_code.rejected
            else Exit_code.failure
          in
          error_json ~code msg)
  | Proto.Status id -> (
      match status t id with
      | None -> error_json (Printf.sprintf "unknown job %d" id)
      | Some (tenant, st) ->
          Njson.Obj
            ([ ("ok", Njson.Bool true); ("id", Njson.Int id);
               ("tenant", Njson.Str tenant);
               ("state", Njson.Str (state_name st)) ]
            @
            match st with
            | Done o -> [ ("outcome", Njson.Str (outcome_name o)) ]
            | _ -> []))
  | Proto.Cancel id -> (
      match cancel t id with
      | `Unknown -> error_json (Printf.sprintf "unknown job %d" id)
      | (`Cancelled | `Cancel_requested | `Too_late) as r ->
          Njson.Obj
            [ ("ok", Njson.Bool true); ("id", Njson.Int id);
              ( "cancel",
                Njson.Str
                  (match r with
                  | `Cancelled -> "cancelled"
                  | `Cancel_requested -> "requested"
                  | `Too_late -> "too_late") ) ])
  | Proto.Result id -> (
      match status t id with
      | None -> error_json (Printf.sprintf "unknown job %d" id)
      | Some (_, (Queued | Running)) ->
          Njson.Obj
            [ ("ok", Njson.Bool true); ("id", Njson.Int id);
              ("state", Njson.Str "pending") ]
      | Some (_, Done o) -> outcome_json id o)
  | Proto.Health -> health_json t
  | Proto.Shutdown ->
      on_shutdown ();
      Njson.Obj [ ("ok", Njson.Bool true); ("shutdown", Njson.Bool true) ]

let http_response ?(content_type = "text/plain; version=0.0.4") body =
  Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s"
    content_type (String.length body) body

(* Request lines longer than this are refused, never buffered whole. *)
let max_line_bytes = 1 lsl 20

(* [input_line] with a length cap: [`Too_long prefix] carries the first
   [max_line_bytes] bytes and leaves the rest of the line unread. *)
let read_line ic =
  let b = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents b)
    | _ when Buffer.length b >= max_line_bytes -> `Too_long (Buffer.contents b)
    | c ->
        Buffer.add_char b c;
        go ()
    | exception End_of_file -> if Buffer.length b = 0 then `Eof else `Line (Buffer.contents b)
  in
  go ()

let is_http_get line = String.starts_with ~prefix:"GET " line

(* Serve one accepted connection: either a one-shot HTTP GET (Prometheus
   scrape) or an NDJSON request loop that runs until the client closes.
   An over-long NDJSON line gets one error reply and an over-long HTTP
   line none; either way the connection closes. *)
let handle_conn t ~shutdown_hook fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let finally () =
    (try flush oc with _ -> ());
    try Unix.close fd with _ -> ()
  in
  let reply j =
    output_string oc (Njson.to_string j);
    output_char oc '\n';
    flush oc
  in
  let too_long () =
    reply (error_json (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))
  in
  Fun.protect ~finally (fun () ->
      match read_line ic with
      | `Eof -> ()
      | `Too_long first -> if not (is_http_get first) then too_long ()
      | `Line first when is_http_get first -> (
          (* Drain the request headers, then answer and close. *)
          let rec headers () =
            match read_line ic with
            | `Line ("" | "\r") | `Eof -> true
            | `Line _ -> headers ()
            | `Too_long _ -> false
          in
          let path =
            match String.split_on_char ' ' first with
            | _ :: p :: _ -> p
            | _ -> "/"
          in
          if headers () then
            match path with
            | "/metrics" -> output_string oc (http_response (scrape t))
            | "/healthz" ->
                output_string oc
                  (http_response ~content_type:"application/json"
                     (Njson.to_string (health_json t)))
            | _ ->
                output_string oc
                  (Printf.sprintf
                     "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
      | `Line first ->
          let rec loop line =
            reply
              (match Njson.of_string_opt line with
              | None -> error_json "malformed JSON"
              | Some j -> (
                  match Proto.request_of_json j with
                  | Error e -> error_json e
                  | Ok req -> dispatch t ~on_shutdown:shutdown_hook req));
            match read_line ic with
            | `Line line -> loop line
            | `Too_long _ -> too_long ()
            | `Eof -> ()
          in
          loop first)

let shutdown t =
  let already, fd, acceptor =
    locked t (fun () ->
        if t.stopping then (true, None, None)
        else begin
          t.stopping <- true;
          let r = (false, t.listen_fd, t.accept_thread) in
          t.listen_fd <- None;
          t.accept_thread <- None;
          r
        end)
  in
  if not already then begin
    (* Abort running jobs at their next kernel boundary, then let the
       workers drain what is queued (exec marks those Cancelled). *)
    locked t (fun () ->
        Hashtbl.iter
          (fun _ j ->
            match j.jstate with
            | Queued | Running -> j.cancel_flag <- true
            | Done _ -> ())
          t.jobs);
    Jobq.close t.q;
    (match fd with
    | Some fd ->
        (* Wake the acceptor: shutdown() interrupts a blocked accept on
           Linux; the dummy connect covers platforms where it does not. *)
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
        (match t.listen_at with
        | Some a -> (
            try
              let s =
                Unix.socket
                  (match a with
                  | Unix_sock _ -> Unix.PF_UNIX
                  | Tcp _ -> Unix.PF_INET)
                  Unix.SOCK_STREAM 0
              in
              (try Unix.connect s (sockaddr_of a) with _ -> ());
              Unix.close s
            with _ -> ())
        | None -> ());
        (try Unix.close fd with _ -> ())
    | None -> ());
    Option.iter Thread.join acceptor;
    List.iter Thread.join t.workers;
    (match t.listen_at with
    | Some (Unix_sock p) ->
        (try Unix.unlink p with _ -> ());
        t.listen_at <- None
    | _ -> ());
    locked t (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stopped_cv)
  end

(* The shutdown may run on another thread (a client's [Shutdown] starts
   it detached), so wait for its end, not just for the workers: the
   socket file is unlinked after they exit. *)
let join t =
  locked t (fun () ->
      while not t.stopped do
        Condition.wait t.stopped_cv t.mu
      done)

let listen t addr =
  (match addr with
  | Unix_sock p when Sys.file_exists p -> ( try Unix.unlink p with _ -> ())
  | _ -> ());
  let domain =
    match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_sock _ -> ());
  (try Unix.bind fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.listen fd 16;
  locked t (fun () ->
      t.listen_fd <- Some fd;
      t.listen_at <- Some addr);
  let shutdown_hook () =
    (* Shut down from a detached thread: the connection thread must
       finish writing its ack, and joining the workers from here could
       deadlock if this connection is handled inline. *)
    ignore (Thread.create (fun () -> shutdown t) ())
  in
  let acceptor =
    Thread.create
      (fun () ->
        let rec accept_loop () =
          match Unix.accept fd with
          | exception _ -> ()
          | conn, _ ->
              if locked t (fun () -> t.stopping) then (try Unix.close conn with _ -> ())
              else begin
                ignore
                  (Thread.create (fun () -> handle_conn t ~shutdown_hook conn) ());
                accept_loop ()
              end
        in
        accept_loop ())
      ()
  in
  locked t (fun () -> t.accept_thread <- Some acceptor)

(* --- client ------------------------------------------------------------ *)

module Client = struct
  type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect addr =
    let domain =
      match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (sockaddr_of addr)
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

  let close c = try Unix.close c.fd with _ -> ()

  let roundtrip c j =
    output_string c.oc (Njson.to_string j);
    output_char c.oc '\n';
    flush c.oc;
    Njson.of_string (input_line c.ic)

  let request c req = roundtrip c (Proto.request_to_json req)

  let scrape_http addr =
    let c = connect addr in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        output_string c.oc "GET /metrics HTTP/1.0\r\n\r\n";
        flush c.oc;
        (* Read to EOF (the server closes after one response), then strip
           the header block: the body starts after the first blank line. *)
        let all = Buffer.create 1024 in
        (try
           while true do
             Buffer.add_channel all c.ic 1
           done
         with End_of_file -> ());
        let s = Buffer.contents all in
        let rec find i =
          if i + 3 < String.length s && String.sub s i 4 = "\r\n\r\n" then
            Some (i + 4)
          else if i + 1 < String.length s && String.sub s i 2 = "\n\n" then
            Some (i + 2)
          else if i < String.length s then find (i + 1)
          else None
        in
        match find 0 with
        | Some i -> String.sub s i (String.length s - i)
        | None -> s)
end

(* --- smoke test --------------------------------------------------------- *)

let self_test ?addr () =
  let addr =
    match addr with
    | Some a -> a
    | None ->
        let p = Filename.temp_file "accelprof-serve" ".sock" in
        (try Sys.remove p with _ -> ());
        Unix_sock p
  in
  let t = create ~workers:2 () in
  let fail msg =
    shutdown t;
    Error msg
  in
  match listen t addr with
  | exception e -> Error (Printf.sprintf "bind %s: %s" (addr_to_string addr) (Printexc.to_string e))
  | () -> (
      let c = Client.connect addr in
      let resp =
        Client.request c
          (Proto.Submit
             {
               Proto.tenant = "smoke";
               model = "AN";
               tool = Some "kernel_freq";
               train = false;
               iters = Some 1;
               gpu = "a100";
               knobs = [];
               deadline_us = None;
               trace = None;
             })
      in
      match Njson.int_field "id" resp with
      | None ->
          Client.close c;
          fail
            (Printf.sprintf "submit over socket failed: %s" (Njson.to_string resp))
      | Some id -> (
          match wait ~timeout_s:60.0 t id with
          | Some (Completed _) -> (
              let r = Client.request c (Proto.Result id) in
              Client.close c;
              match Njson.str_field "outcome" r with
              | Some "completed" ->
                  let body = Client.scrape_http addr in
                  let ok_scrape =
                    let needle = "accelprof_serve_jobs_submitted_total" in
                    let n = String.length needle and h = String.length body in
                    let rec has i =
                      i + n <= h && (String.sub body i n = needle || has (i + 1))
                    in
                    has 0
                  in
                  shutdown t;
                  if ok_scrape then Ok ()
                  else Error "scrape missing accelprof_serve_jobs_submitted_total"
              | _ ->
                  fail
                    (Printf.sprintf "result over socket not completed: %s"
                       (Njson.to_string r)))
          | Some o ->
              Client.close c;
              fail (Printf.sprintf "job finished %s" (outcome_name o))
          | None ->
              Client.close c;
              fail "job timed out"))
