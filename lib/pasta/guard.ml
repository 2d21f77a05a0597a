type callback =
  | On_event
  | On_kernel_begin
  | On_kernel_end
  | On_mem_summary
  | On_device_summary
  | On_access
  | On_access_columns
  | On_kernel_profile
  | On_operator
  | On_tensor
  | Report

let all_callbacks =
  [
    On_event;
    On_kernel_begin;
    On_kernel_end;
    On_mem_summary;
    On_device_summary;
    On_access;
    On_access_columns;
    On_kernel_profile;
    On_operator;
    On_tensor;
    Report;
  ]

let callback_name = function
  | On_event -> "on_event"
  | On_kernel_begin -> "on_kernel_begin"
  | On_kernel_end -> "on_kernel_end"
  | On_mem_summary -> "on_mem_summary"
  | On_device_summary -> "on_device_summary"
  | On_access -> "on_access"
  | On_access_columns -> "on_access_columns"
  | On_kernel_profile -> "on_kernel_profile"
  | On_operator -> "on_operator"
  | On_tensor -> "on_tensor"
  | Report -> "report"

let callback_index = function
  | On_event -> 0
  | On_kernel_begin -> 1
  | On_kernel_end -> 2
  | On_mem_summary -> 3
  | On_device_summary -> 4
  | On_access -> 5
  | On_access_columns -> 6
  | On_kernel_profile -> 7
  | On_operator -> 8
  | On_tensor -> 9
  | Report -> 10

type state = Closed | Quarantined | Half_open

let state_name = function
  | Closed -> "closed"
  | Quarantined -> "quarantined"
  | Half_open -> "half-open"

type t = {
  the_tool : Tool.t;
  slot : Telemetry.tool_slot;
      (* telemetry attribution slot; resolved once so the per-callback
         path does no hashing *)
  threshold : int;
  cooldown : int;
  on_trip : failures:int -> unit;
  on_failure : callback -> unit;
  failures : int array; (* indexed by callback_index *)
  mutable window_failures : int; (* resets when the breaker closes *)
  mutable total : int;
  mutable quarantined_since : int option; (* kernel ordinal at trip *)
  closed : bool Atomic.t;
      (* [quarantined_since = None], readable without [mu]: a callback on
         a closed breaker takes no lock.  Written under [mu] together with
         [quarantined_since], by [set_quarantined] only. *)
  mutable kernels : int;
  mutable quarantines : int;
  mutable reinstated : int;
  mutable suppressed : int;
  mu : Mutex.t;
      (* serializes state transitions so concurrent callers (fleet shards,
         race tests) see a linearizable breaker.  Callbacks — the tool's
         own and [on_trip]/[on_failure] — always run OUTSIDE the lock:
         [on_trip] re-enters the guard through the processor's quarantine
         incident, and a held lock there would self-deadlock. *)
}

let create ?threshold ?cooldown_kernels ?(on_failure = fun _ -> ()) ~on_trip tool =
  let threshold = Option.value threshold ~default:(Config.guard_threshold ()) in
  let cooldown =
    Option.value cooldown_kernels ~default:(Config.guard_cooldown_kernels ())
  in
  if threshold <= 0 then invalid_arg "Guard.create: threshold must be positive";
  if cooldown <= 0 then invalid_arg "Guard.create: cooldown must be positive";
  {
    the_tool = tool;
    slot = Telemetry.tool_slot tool.Tool.name;
    threshold;
    cooldown;
    on_trip;
    on_failure;
    failures = Array.make (List.length all_callbacks) 0;
    window_failures = 0;
    total = 0;
    quarantined_since = None;
    closed = Atomic.make true;
    kernels = 0;
    quarantines = 0;
    reinstated = 0;
    suppressed = 0;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let tool t = t.the_tool

(* Caller holds [t.mu]. *)
let set_quarantined t since =
  t.quarantined_since <- since;
  Atomic.set t.closed (Option.is_none since)

let cooldown_elapsed t =
  match t.quarantined_since with
  | None -> false
  | Some since -> t.kernels - since >= t.cooldown

(* Caller holds [t.mu]. *)
let state_locked t =
  match t.quarantined_since with
  | None -> Closed
  | Some _ -> if cooldown_elapsed t then Half_open else Quarantined

let state t =
  if Atomic.get t.closed then Closed else locked t (fun () -> state_locked t)

let note_kernel t = locked t (fun () -> t.kernels <- t.kernels + 1)

(* A callback raised.  Count the failure and decide, under the lock,
   whether it trips the breaker: a failed half-open probe always
   re-quarantines for another full cooldown; otherwise only the caller
   that crosses the threshold while the breaker is still closed trips it,
   so a burst of concurrent failures trips once.  A failed report never
   trips — quarantine silences event-path callbacks only. *)
let failed t cb ~probe =
  let tripped =
    locked t (fun () ->
        let i = callback_index cb in
        t.failures.(i) <- t.failures.(i) + 1;
        t.total <- t.total + 1;
        t.window_failures <- t.window_failures + 1;
        if
          probe
          || cb <> Report
             && t.window_failures >= t.threshold
             && t.quarantined_since = None
        then begin
          set_quarantined t (Some t.kernels);
          t.quarantines <- t.quarantines + 1;
          Some t.window_failures
        end
        else None)
  in
  t.on_failure cb;
  Option.iter (fun failures -> t.on_trip ~failures) tripped

(* Run one callback and settle its outcome.  Telemetry counts the call
   here, whether or not it raises; its wall time goes to the enclosing
   tool frame. *)
let run t cb f a b ~probe =
  Telemetry.count_calls t.slot 1;
  match f t.the_tool a b with
  | () ->
      if probe then
        locked t (fun () ->
            set_quarantined t None;
            t.window_failures <- 0;
            t.reinstated <- t.reinstated + 1)
  | exception _ -> failed t cb ~probe

let call_in_frame t cb f a b =
  if Atomic.get t.closed then run t cb f a b ~probe:false
  else
    match
      locked t (fun () ->
          match state_locked t with
          | Quarantined ->
              t.suppressed <- t.suppressed + 1;
              None
          | Half_open ->
              (* Claim the probe: re-arm the quarantine clock so concurrent
                 callers observe [Quarantined] and suppress until this one
                 probe resolves.  One probe decides — success reinstates,
                 failure re-quarantines for another full cooldown. *)
              set_quarantined t (Some t.kernels);
              Some true
          | Closed -> Some false)
    with
    | None -> ()
    | Some probe -> run t cb f a b ~probe

(* The closed breaker's run: one exception trap around a loop of calls
   instead of one per call.  A raising call is settled as [run] settles
   it, and the loop resumes with the next call under a new trap; once the
   breaker is no longer closed it stops.  The calls, raising ones
   included, are counted once, at the end. *)
let rec run_closed t cb f a b n ran =
  let i = ref ran in
  match
    while !i < n && Atomic.get t.closed do
      incr i;
      f t.the_tool a b
    done
  with
  | () -> !i
  | exception _ ->
      failed t cb ~probe:false;
      run_closed t cb f a b n !i

let call_while_closed t cb f a b n =
  if n <= 0 || not (Atomic.get t.closed) then 0
  else begin
    let ran = run_closed t cb f a b n 0 in
    Telemetry.count_calls t.slot ran;
    ran
  end

(* A raising callback still gets its wall time charged to the tool — that
   is exactly the time a misbehaving (soon-quarantined) tool cost the
   pipeline. *)
let framed t body =
  Telemetry.begin_tool t.slot;
  match body () with
  | v ->
      Telemetry.end_tool t.slot;
      v
  | exception e ->
      Telemetry.end_tool t.slot;
      raise e

let call t cb f = framed t (fun () -> call_in_frame t cb (fun tool f () -> f tool) f ())

(* The report is counted as one of the tool's calls, but its wall time
   goes to its own layer, not to the tool's frame: the report row shows
   what rendering the tool's output cost. *)
let guarded_report t ppf =
  Telemetry.begin_span Telemetry.Report "tool.report";
  Fun.protect ~finally:(fun () -> Telemetry.end_span Telemetry.Report) @@ fun () ->
  Telemetry.count_calls t.slot 1;
  match t.the_tool.Tool.report ppf with
  | () -> ()
  | exception e ->
      failed t Report ~probe:false;
      Format.fprintf ppf "tool %s: report failed (%s)@." t.the_tool.Tool.name
        (Printexc.to_string e)

let total_failures t = locked t (fun () -> t.total)

let failures_by_callback t =
  locked t (fun () ->
      List.filter_map
        (fun cb ->
          let n = t.failures.(callback_index cb) in
          if n > 0 then Some (callback_name cb, n) else None)
        all_callbacks)

let quarantine_count t = locked t (fun () -> t.quarantines)
let reinstated_count t = locked t (fun () -> t.reinstated)
let suppressed_count t = locked t (fun () -> t.suppressed)
