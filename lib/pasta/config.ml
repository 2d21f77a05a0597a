let overrides : (string, string) Hashtbl.t = Hashtbl.create 8

let set k v = Hashtbl.replace overrides k v
let unset k = Hashtbl.remove overrides k
let clear_overrides () = Hashtbl.reset overrides

(* --- Thread-scoped overlays ------------------------------------------- *)

(* Per-session knob isolation for the multi-tenant serve path: every knob
   is read through [get], and [get] consults the calling thread's overlay
   stack before the process-global overrides and the environment.  A
   session attached inside [with_overlay kvs f] therefore snapshots its
   tenant's settings without a concurrent session (another thread, other
   overlays) ever observing them — [set]/[Sys.putenv] style global
   mutation is no longer the only way to configure a session.

   Overlays are keyed by systhread id ([Thread.id] is process-unique, and
   the main thread of every domain has one), pushed/popped strictly
   LIFO by [with_overlay]; entries never outlive their scope, so the
   table stays as small as the number of threads currently inside an
   overlay. *)

let overlays : (int, (string * string) list list) Hashtbl.t = Hashtbl.create 8
let overlays_mu = Mutex.create ()

let thread_key () = Thread.id (Thread.self ())

let overlay_find k =
  (* Fast path: no overlay anywhere (the single-tenant CLI), one unlocked
     size check.  Hashtbl.length is a plain field read. *)
  if Hashtbl.length overlays = 0 then None
  else begin
    Mutex.lock overlays_mu;
    let stack = Hashtbl.find_opt overlays (thread_key ()) in
    Mutex.unlock overlays_mu;
    match stack with
    | None | Some [] -> None
    | Some frames ->
        List.find_map (fun frame -> List.assoc_opt k frame) frames
  end

let with_overlay kvs f =
  let key = thread_key () in
  Mutex.lock overlays_mu;
  let prev = Option.value (Hashtbl.find_opt overlays key) ~default:[] in
  Hashtbl.replace overlays key (kvs :: prev);
  Mutex.unlock overlays_mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock overlays_mu;
      (match prev with
      | [] -> Hashtbl.remove overlays key
      | _ -> Hashtbl.replace overlays key prev);
      Mutex.unlock overlays_mu)
    f

let get k =
  match overlay_find k with
  | Some v -> Some v
  | None -> (
      match Hashtbl.find_opt overrides k with
      | Some v -> Some v
      | None -> Sys.getenv_opt k)

(* Every session-scoped knob, for [snapshot]: the set of keys a tenant may
   meaningfully override per job.  Process-global knobs (telemetry level,
   domain-pool size) are deliberately absent — see serve's tenant-knob
   filter. *)
let session_knob_keys =
  [
    "PASTA_TOOL";
    "START_GRID_ID";
    "END_GRID_ID";
    "ACCEL_PROF_ENV_SAMPLE_RATE";
    "ACCEL_PROF_SAMPLE_RATE";
    "ACCEL_PROF_OVERHEAD_BUDGET";
    "ACCEL_PROF_GUARD_THRESHOLD";
    "ACCEL_PROF_GUARD_COOLDOWN_KERNELS";
    "ACCEL_PROF_BUFFER_CAP";
    "ACCEL_PROF_OVERFLOW_POLICY";
    "ACCEL_PROF_WATCHDOG_US";
    "ACCEL_PROF_REGIONS";
    "ACCEL_PROF_INJECT_FAULTS";
    "ACCEL_PROF_FAULT_SEED";
    "ACCEL_PROF_TRACE";
    "ACCEL_PROF_TRACE_CHUNK_KB";
    "ACCEL_PROF_TRACE_STRICT";
  ]

let snapshot () =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (get k))
    session_knob_keys

let get_int k = Option.bind (get k) int_of_string_opt

let tool_name () = get "PASTA_TOOL"

(* --- Adaptive sampling knobs --- *)

let sampling_rate () =
  match Option.bind (get "ACCEL_PROF_SAMPLE_RATE") float_of_string_opt with
  | Some r when r > 0.0 && r <= 1.0 && Float.is_finite r -> Some r
  | _ -> None

(* Accepts "5%" (percent of workload time) or "0.05" (fraction). *)
let parse_budget s =
  let s = String.trim s in
  if s = "" then None
  else
    let frac =
      if s.[String.length s - 1] = '%' then
        Option.map
          (fun p -> p /. 100.0)
          (float_of_string_opt (String.sub s 0 (String.length s - 1)))
      else float_of_string_opt s
    in
    match frac with
    | Some f when f > 0.0 && f <= 1.0 && Float.is_finite f -> Some f
    | _ -> None

let overhead_budget () = Option.bind (get "ACCEL_PROF_OVERHEAD_BUDGET") parse_budget

(* --- Robustness / supervision knobs --- *)

(* A strict knob refuses a value outside its set rather than quietly
   running with the default.  An empty value counts as unset. *)
let invalid_knob key v expected =
  invalid_arg (Printf.sprintf "%s=%S is not %s" key v expected)

let strict_int_opt key ~max expected =
  match get key with
  | None | Some "" -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 && n <= max -> Some n
      | _ -> invalid_knob key v expected)

let strict_int key ~default ~max expected =
  Option.value (strict_int_opt key ~max expected) ~default

let start_grid_id () = strict_int_opt "START_GRID_ID" ~max:max_int "a positive integer"
let end_grid_id () = strict_int_opt "END_GRID_ID" ~max:max_int "a positive integer"

let guard_threshold () =
  strict_int "ACCEL_PROF_GUARD_THRESHOLD" ~default:10 ~max:max_int "a positive integer"

let guard_cooldown_kernels () =
  strict_int "ACCEL_PROF_GUARD_COOLDOWN_KERNELS" ~default:25 ~max:max_int
    "a positive integer"

let sample_cap () =
  strict_int_opt "ACCEL_PROF_ENV_SAMPLE_RATE" ~max:max_int "a positive integer"

let buffer_capacity () =
  strict_int "ACCEL_PROF_BUFFER_CAP" ~default:4096 ~max:max_int "a positive integer"

type overflow = Drop_oldest | Drop_newest | Block

let overflow_to_string = function
  | Drop_oldest -> "drop-oldest"
  | Drop_newest -> "drop-newest"
  | Block -> "block"

let overflow_policy () =
  match get "ACCEL_PROF_OVERFLOW_POLICY" with
  | None -> Block
  | Some v -> (
      match String.lowercase_ascii v with
      | "" | "block" | "stall" -> Block
      | "drop-oldest" | "drop_oldest" | "oldest" -> Drop_oldest
      | "drop-newest" | "drop_newest" | "newest" -> Drop_newest
      | _ ->
          invalid_knob "ACCEL_PROF_OVERFLOW_POLICY" v
            "one of: drop-oldest (drop_oldest, oldest), drop-newest \
             (drop_newest, newest), block (stall)")

let watchdog_us () =
  match get "ACCEL_PROF_WATCHDOG_US" with
  | None | Some "" -> 1_000_000.0
  | Some v -> (
      match float_of_string_opt v with
      | Some us when us > 0.0 && Float.is_finite us -> us
      | _ -> invalid_knob "ACCEL_PROF_WATCHDOG_US" v "a positive finite number of microseconds")

let domains () =
  match strict_int_opt "ACCEL_PROF_DOMAINS" ~max:max_int "a positive integer" with
  | Some n -> min n 64
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* --- Intra-kernel region profiling knob --- *)

let regions () =
  match get "ACCEL_PROF_REGIONS" with
  | None -> Gpusim.Instrpass.Off
  | Some v -> (
      match String.lowercase_ascii v with
      | "" | "off" | "0" | "false" | "no" -> Gpusim.Instrpass.Off
      | "coarse" | "1" | "on" | "true" | "yes" -> Gpusim.Instrpass.Coarse
      | "fine" | "full" | "2" -> Gpusim.Instrpass.Fine
      | _ ->
          invalid_knob "ACCEL_PROF_REGIONS" v
            "one of: off (0, false, no), coarse (1, on, true, yes), fine (full, 2)")

let inject_faults () =
  match get "ACCEL_PROF_INJECT_FAULTS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let fault_seed () =
  match Option.bind (get "ACCEL_PROF_FAULT_SEED") Int64.of_string_opt with
  | Some s -> s
  | None -> 0x5EEDL

(* --- Fleet profiling knobs --- *)

let fleet_fanout () =
  match get_int "ACCEL_PROF_FLEET_FANOUT" with
  | Some n when n >= 2 -> n
  | _ -> 8

let fleet_deadline_us () =
  match Option.bind (get "ACCEL_PROF_FLEET_DEADLINE_US") float_of_string_opt with
  | Some v when v > 0.0 -> v
  | _ -> 5_000_000.0

let fleet_retries () =
  match get_int "ACCEL_PROF_FLEET_RETRIES" with
  | Some n when n >= 0 -> n
  | _ -> 2

let fleet_backoff_us () =
  match Option.bind (get "ACCEL_PROF_FLEET_BACKOFF_US") float_of_string_opt with
  | Some v when v >= 0.0 -> v
  | _ -> 10_000.0

let strict_fleet () =
  match get "ACCEL_PROF_STRICT_FLEET" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* --- Self-telemetry knobs --- *)

let telemetry () =
  match Option.map String.lowercase_ascii (get "ACCEL_PROF_TELEMETRY") with
  | Some ("off" | "0" | "false" | "no" | "none") -> `Off
  | Some ("full" | "2") -> `Full
  | Some _ | None -> `Basic

let telemetry_spans () =
  match get_int "ACCEL_PROF_TELEMETRY_SPANS" with
  | Some n when n > 0 -> n
  | _ -> 65536

(* --- Trace capture / replay knobs --- *)

let trace_path () =
  match get "ACCEL_PROF_TRACE" with
  | Some p when p <> "" -> Some p
  | _ -> None

(* Capped at 64 MiB: a capture allocates its chunk buffer up front. *)
let trace_chunk_bytes () =
  1024
  * strict_int "ACCEL_PROF_TRACE_CHUNK_KB" ~default:256 ~max:65536
      "an integer from 1 to 65536 (KiB)"

let trace_strict () =
  match get "ACCEL_PROF_TRACE_STRICT" with
  | Some ("0" | "false" | "no" | "off" | "tolerant") -> false
  | _ -> true

(* --- Serve daemon knobs --- *)

let serve_capacity () =
  strict_int "ACCEL_PROF_SERVE_CAPACITY" ~default:64 ~max:max_int "a positive integer"

let serve_quota () =
  strict_int "ACCEL_PROF_SERVE_QUOTA" ~default:16 ~max:max_int "a positive integer"

let serve_workers () =
  strict_int "ACCEL_PROF_SERVE_WORKERS" ~default:4 ~max:max_int "a positive integer"

let validate () =
  match
    ignore (start_grid_id ());
    ignore (end_grid_id ());
    ignore (sample_cap ());
    ignore (guard_threshold ());
    ignore (guard_cooldown_kernels ());
    ignore (buffer_capacity ());
    ignore (overflow_policy ());
    ignore (watchdog_us ());
    ignore (domains ());
    ignore (regions ());
    ignore (trace_chunk_bytes ());
    ignore (serve_capacity ());
    ignore (serve_quota ());
    ignore (serve_workers ())
  with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg
