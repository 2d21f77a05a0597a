module Metric = Pasta_util.Metric
module Span_buf = Pasta_util.Span_buf

(* The framework's own observability (the treatment PASTA gives GPU
   programs, applied to PASTA itself).  Design constraints, in order:

   1. Cheap enough to leave on.  The [basic] level does exactly two
      wall-clock reads per span and a handful of field writes into
      preallocated state — no allocation, no hashing, no locks on the
      begin/end path.  Tool callbacks cost one counter addition per run
      of them ([count_calls]); the clock is read by the tool frame
      around them, which a per-record site opens once per batch.
   2. Exact attribution.  Self time is kept as a stack discipline: every
      wall-clock interval between two instrumentation points is charged to
      whichever span (or the simulate/workload root) was on top when it
      elapsed.  The per-layer and per-tool rows of {!attribution} therefore
      sum to total wall time by construction, not by approximation.
   3. Deterministic-safe.  Nothing here feeds back into the pipeline:
      metric *counts* come from the processor's registry, and replaying a
      trace reproduces them exactly even though every timing differs. *)

type level = Off | Basic | Full

let level_name = function Off -> "off" | Basic -> "basic" | Full -> "full"

(* One int load guards every instrumentation point. *)
let lvl = ref 1

let level () = match !lvl with 0 -> Off | 1 -> Basic | _ -> Full
let set_level l = lvl := (match l with Off -> 0 | Basic -> 1 | Full -> 2)

let refresh_level () =
  set_level
    (match Config.telemetry () with
    | `Off -> Off
    | `Basic -> Basic
    | `Full -> Full)

let enabled () = !lvl > 0

let now_us () = Unix.gettimeofday () *. 1e6

(* Simulated-clock mirror, refreshed by the Gpusim.Clock observer a Session
   installs (replay refreshes it from recorded timestamps instead), so every
   span carries both clock domains. *)
let sim_now = ref 0.0
let note_sim_us v = sim_now := v

(* --- Categories ------------------------------------------------------- *)

type cat =
  | Simulate    (* the root: workload + simulator, everything unattributed *)
  | Handler     (* vendor event adaptation / normalization *)
  | Dispatch    (* processor: registry, filtering, dispatch *)
  | Ring        (* bounded record buffer enqueue/drain *)
  | Devagg      (* kernel-end shard aggregation + merge *)
  | Capture_io  (* trace capture encode + write *)
  | Replay_io   (* trace decode + re-drive loop *)
  | Export      (* telemetry's own exporters *)
  | Fleet       (* fleet orchestration: device attempts, merge nodes *)
  | Report      (* rendering a tool's end-of-run report *)

let cat_index = function
  | Simulate -> 0
  | Handler -> 1
  | Dispatch -> 2
  | Ring -> 3
  | Devagg -> 4
  | Capture_io -> 5
  | Replay_io -> 6
  | Export -> 7
  | Fleet -> 8
  | Report -> 9

let cat_count = 10

let cat_label_of_index = function
  | 0 -> "simulate"
  | 1 -> "handler"
  | 2 -> "processor"
  | 3 -> "ring_buffer"
  | 4 -> "devagg"
  | 5 -> "capture"
  | 6 -> "replay"
  | 7 -> "export"
  | 8 -> "fleet"
  | 9 -> "report"
  | _ -> "unknown"

let cat_describe_of_index = function
  | 0 -> "simulate + workload"
  | 1 -> "handler (vendor adapt)"
  | 2 -> "processor (dispatch)"
  | 3 -> "ring buffer"
  | 4 -> "devagg (parallel agg)"
  | 5 -> "capture I/O"
  | 6 -> "replay I/O"
  | 7 -> "telemetry export"
  | 8 -> "fleet orchestration"
  | 9 -> "report (tool output)"
  | _ -> "unknown"

(* --- Registry and tool slots ------------------------------------------ *)

let reg = Metric.create ()

(* Wall microseconds and Gc minor/major words.  An all-float record is
   stored flat, so updating a field writes in place instead of boxing a
   fresh float: the Basic-level span path stays allocation-free. *)
type clocks = { mutable wall : float; mutable minor : float; mutable major : float }

let zero_clocks () = { wall = 0.0; minor = 0.0; major = 0.0 }

type tool_slot = {
  ts_name : string;
  ts_used : clocks;  (* self time and words allocated while on top *)
  mutable ts_calls : int;  (* callbacks run, from [count_calls] *)
  ts_hist : Metric.histogram;  (* per-frame latency, observed in Full *)
}

let slots : (string, tool_slot) Hashtbl.t = Hashtbl.create 8
let slots_mu = Mutex.create ()

let tool_slot name =
  Mutex.lock slots_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slots_mu)
    (fun () ->
      match Hashtbl.find_opt slots name with
      | Some s -> s
      | None ->
          let s =
            {
              ts_name = name;
              ts_used = zero_clocks ();
              ts_calls = 0;
              ts_hist =
                Metric.histogram reg
                  ~help:"tool frame latency, microseconds"
                  ~labels:[ ("tool", name) ] "pasta_tool_callback_us";
            }
          in
          Hashtbl.add slots name s;
          s)

(* The dummy's histogram lives in a throwaway registry so it never shows
   up in the exported exposition. *)
let dummy_slot =
  {
    ts_name = "";
    ts_used = zero_clocks ();
    ts_calls = 0;
    ts_hist = Metric.histogram (Metric.create ()) ~samples:1 "dummy";
  }

(* --- Per-domain context ------------------------------------------------ *)

(* [f_cat >= 0] is a category frame; [f_cat = -1] marks a tool frame and
   the slot carries the identity — no option, so pushing never allocates. *)
type frame = {
  mutable f_cat : int;
  mutable f_slot : tool_slot;
  mutable f_name : string;
}

let stack_cap = 64

type ctx = {
  cx_id : int;  (* domain id at creation *)
  mutable cx_dev : int;  (* device this context is profiling, -1 none *)
  stack : frame array;
  t0 : float array;  (* per-frame wall start, us, indexed like [stack] *)
  sim0 : float array;  (* per-frame simulated-clock start, us *)
  mutable depth : int;
  mutable skipped : int;  (* virtual frames beyond [stack_cap] *)
  last : clocks;  (* readings at the last attribution switch *)
  self : float array;     (* per-category self time, us *)
  counts : int array;     (* per-category completed spans *)
  self_minor : float array;  (* per-category minor words allocated *)
  self_major : float array;  (* per-category major words allocated *)
  mutable mismatches : int;
  mutable spans : int;    (* spans recorded to the store (Full) *)
}

let make_frame () = { f_cat = 0; f_slot = dummy_slot; f_name = "" }

let make_ctx () =
  let minor, _, major = Gc.counters () in
  {
    cx_id = (Domain.self () :> int);
    cx_dev = -1;
    stack = Array.init stack_cap (fun _ -> make_frame ());
    t0 = Array.make stack_cap 0.0;
    sim0 = Array.make stack_cap 0.0;
    depth = 0;
    skipped = 0;
    last = { wall = now_us (); minor; major };
    self = Array.make cat_count 0.0;
    counts = Array.make cat_count 0;
    self_minor = Array.make cat_count 0.0;
    self_major = Array.make cat_count 0.0;
    mismatches = 0;
    spans = 0;
  }

let ctx_key = Domain.DLS.new_key make_ctx
let ctx () = Domain.DLS.get ctx_key

(* Which device this domain's instrumentation is attributed to.  Sessions
   set it at attach and clear it (-1) at detach; fleet shards set it per
   attempt.  Per-domain, so concurrent merge workers stay unattributed. *)
let set_device d = (ctx ()).cx_dev <- d
let current_device () = (ctx ()).cx_dev

(* Epoch of the current measurement window ([reset] moves it). *)
let epoch = ref (now_us ())

(* --- Span store and occupancy series (Full mode) ----------------------- *)

let spans_store : Span_buf.t option ref = ref None

let span_store () =
  match !spans_store with
  | Some b -> b
  | None ->
      let b = Span_buf.create ~capacity:(Config.telemetry_spans ()) in
      spans_store := Some b;
      b

(* Ring-buffer occupancy samples for the Perfetto counter track: cyclic,
   newest-wins, one (wall, value) pair per sample. *)
let occ_cap = 8192
let occ_t = Array.make occ_cap 0.0
let occ_v = Array.make occ_cap 0.0
let occ_next = ref 0
let occ_stored = ref 0

let sample_ring_occupancy n =
  if !lvl > 1 then begin
    occ_t.(!occ_next) <- now_us ();
    occ_v.(!occ_next) <- float_of_int n;
    occ_next := (!occ_next + 1) mod occ_cap;
    if !occ_stored < occ_cap then incr occ_stored
  end

let occ_samples () =
  let n = !occ_stored in
  let first = (!occ_next - n + occ_cap) mod occ_cap in
  List.init n (fun i ->
      let j = (first + i) mod occ_cap in
      (occ_t.(j), occ_v.(j)))

(* --- The span discipline ----------------------------------------------- *)

let[@inline] charge c now =
  let dt = now -. c.last.wall in
  c.last.wall <- now;
  (* Gc words are attributed under exactly the same stack discipline as
     wall time, so per-stage allocation (the zero-copy proof) sums to the
     domain's total by construction.  Reading the Gc counters costs real
     time and allocates on every instrumentation point, which the Basic
     level cannot afford on per-record spans — allocation attribution is
     a Full-level feature (the columns read 0 at Basic). *)
  if !lvl > 1 then begin
    let minor, _, major = Gc.counters () in
    let dmin = minor -. c.last.minor and dmaj = major -. c.last.major in
    c.last.minor <- minor;
    c.last.major <- major;
    if c.depth = 0 then begin
      c.self_minor.(0) <- c.self_minor.(0) +. dmin;
      c.self_major.(0) <- c.self_major.(0) +. dmaj
    end
    else begin
      let f = c.stack.(c.depth - 1) in
      if f.f_cat >= 0 then begin
        c.self_minor.(f.f_cat) <- c.self_minor.(f.f_cat) +. dmin;
        c.self_major.(f.f_cat) <- c.self_major.(f.f_cat) +. dmaj
      end
      else begin
        let u = f.f_slot.ts_used in
        u.minor <- u.minor +. dmin;
        u.major <- u.major +. dmaj
      end
    end
  end;
  if c.depth = 0 then c.self.(0) <- c.self.(0) +. dt
  else begin
    let f = c.stack.(c.depth - 1) in
    if f.f_cat >= 0 then c.self.(f.f_cat) <- c.self.(f.f_cat) +. dt
    else f.f_slot.ts_used.wall <- f.f_slot.ts_used.wall +. dt
  end

let[@inline] push c cat slot name now =
  if c.skipped > 0 || c.depth >= stack_cap then c.skipped <- c.skipped + 1
  else begin
    let i = c.depth in
    let f = c.stack.(i) in
    f.f_cat <- cat;
    f.f_slot <- slot;
    f.f_name <- name;
    c.t0.(i) <- now;
    c.sim0.(i) <- !sim_now;
    c.depth <- i + 1
  end

(* Record the just-popped frame [i] (now [c.depth = i]). *)
let record_span c i now =
  c.spans <- c.spans + 1;
  let f = c.stack.(i) in
  let cat_name =
    if f.f_cat >= 0 then cat_label_of_index f.f_cat else "tool"
  in
  let name = if f.f_cat >= 0 then f.f_name else f.f_slot.ts_name in
  Span_buf.record (span_store ())
    {
      Span_buf.sp_name = name;
      sp_cat = cat_name;
      sp_tid = c.cx_id;
      sp_dev = c.cx_dev;
      sp_depth = c.depth;
      sp_wall0_us = c.t0.(i);
      sp_dur_us = now -. c.t0.(i);
      sp_sim0_us = c.sim0.(i);
      sp_sim1_us = !sim_now;
    }

(* Pop the top frame if it matches [cat]/[slot]; a mismatched or missing
   begin is counted, never raised — instrumentation must not be able to
   take the pipeline down. *)
let[@inline] pop c cat slot now =
  if c.skipped > 0 then c.skipped <- c.skipped - 1
  else if c.depth = 0 then c.mismatches <- c.mismatches + 1
  else begin
    let i = c.depth - 1 in
    let f = c.stack.(i) in
    c.depth <- i;
    if f.f_cat = cat && (cat >= 0 || f.f_slot == slot) then begin
      if cat >= 0 then c.counts.(cat) <- c.counts.(cat) + 1
      else if !lvl > 1 then Metric.observe f.f_slot.ts_hist (now -. c.t0.(i));
      if !lvl > 1 then record_span c i now
    end
    else c.mismatches <- c.mismatches + 1
  end

let begin_span cat name =
  if !lvl > 0 then begin
    let c = ctx () in
    let now = now_us () in
    charge c now;
    push c (cat_index cat) dummy_slot name now
  end

let end_span cat =
  if !lvl > 0 then begin
    let c = ctx () in
    let now = now_us () in
    charge c now;
    pop c (cat_index cat) dummy_slot now
  end

let begin_tool slot =
  if !lvl > 0 then begin
    let c = ctx () in
    let now = now_us () in
    charge c now;
    push c (-1) slot slot.ts_name now
  end

let end_tool slot =
  if !lvl > 0 then begin
    let c = ctx () in
    let now = now_us () in
    charge c now;
    pop c (-1) slot now
  end

(* A callback is counted, not timed: its wall time goes to whichever tool
   frame encloses it, so a frame around a whole batch reads the clock
   twice however many callbacks run inside. *)
let count_calls slot n = if !lvl > 0 then slot.ts_calls <- slot.ts_calls + n

(* --- Test hooks --------------------------------------------------------- *)

let depth () = (ctx ()).depth + (ctx ()).skipped
let mismatches () = (ctx ()).mismatches
let spans_recorded () = (ctx ()).spans
let span_buffer () = span_store ()

(* --- Reset -------------------------------------------------------------- *)

let reset () =
  let c = ctx () in
  let now = now_us () in
  epoch := now;
  c.last.wall <- now;
  c.depth <- 0;
  c.skipped <- 0;
  Array.fill c.self 0 cat_count 0.0;
  Array.fill c.counts 0 cat_count 0;
  Array.fill c.self_minor 0 cat_count 0.0;
  Array.fill c.self_major 0 cat_count 0.0;
  (let minor, _, major = Gc.counters () in
   c.last.minor <- minor;
   c.last.major <- major);
  c.mismatches <- 0;
  c.spans <- 0;
  Mutex.lock slots_mu;
  Hashtbl.iter
    (fun _ s ->
      s.ts_used.wall <- 0.0;
      s.ts_used.minor <- 0.0;
      s.ts_used.major <- 0.0;
      s.ts_calls <- 0)
    slots;
  Mutex.unlock slots_mu;
  Metric.reset reg;
  (match !spans_store with Some b -> Span_buf.clear b | None -> ());
  occ_next := 0;
  occ_stored := 0

(* --- Overhead attribution ---------------------------------------------- *)

type row = {
  row_label : string;
  row_self_us : float;
  row_count : int;
  row_minor_words : float;
  row_major_words : float;
}
type attribution = { at_total_us : float; at_rows : row list }

let tool_rows () =
  Mutex.lock slots_mu;
  let rows =
    Hashtbl.fold
      (fun _ s acc ->
        if s.ts_calls > 0 || s.ts_used.wall > 0.0 then
          { row_label = "tool:" ^ s.ts_name; row_self_us = s.ts_used.wall;
            row_count = s.ts_calls; row_minor_words = s.ts_used.minor;
            row_major_words = s.ts_used.major }
          :: acc
        else acc)
      slots []
  in
  Mutex.unlock slots_mu;
  List.sort (fun a b -> compare a.row_label b.row_label) rows

(* Cheap feedback reading for the sampling governor: cumulative window
   total and the part of it NOT charged to the simulate/workload root,
   i.e. the framework's own overhead so far.  Callers diff successive
   snapshots to get per-window readings.  No allocation beyond the tuple;
   (0, 0) at level Off, where nothing is attributed. *)
let overhead_snapshot () =
  if !lvl = 0 then (0.0, 0.0)
  else begin
    let c = ctx () in
    let now = now_us () in
    charge c now;
    let total = now -. !epoch in
    (total, Float.max 0.0 (total -. c.self.(0)))
  end

(* Attribution covers the calling domain's context — the coordinator.  The
   coordinator blocks while the domain pool maps, so pool wall time shows
   up in the devagg row; workers are never instrumented directly. *)
let attribution () =
  let c = ctx () in
  let now = now_us () in
  charge c now;
  let total = now -. !epoch in
  let cats =
    List.init cat_count (fun i ->
        {
          row_label = cat_describe_of_index i;
          row_self_us = c.self.(i);
          row_count = c.counts.(i);
          row_minor_words = c.self_minor.(i);
          row_major_words = c.self_major.(i);
        })
    |> List.filter (fun r -> r.row_self_us > 0.0 || r.row_count > 0)
  in
  { at_total_us = total; at_rows = cats @ tool_rows () }

let pp_attribution ppf a =
  let sum = List.fold_left (fun acc r -> acc +. r.row_self_us) 0.0 a.at_rows in
  let sum_minor =
    List.fold_left (fun acc r -> acc +. r.row_minor_words) 0.0 a.at_rows
  in
  let sum_major =
    List.fold_left (fun acc r -> acc +. r.row_major_words) 0.0 a.at_rows
  in
  Format.fprintf ppf "overhead attribution (self wall time, level %s):@."
    (level_name (level ()));
  Format.fprintf ppf "  %-28s %12s %7s %10s %12s %12s@." "layer" "self (ms)"
    "share" "spans" "minor (kw)" "major (kw)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-28s %12.3f %6.1f%% %10d %12.1f %12.1f@."
        r.row_label
        (r.row_self_us /. 1000.0)
        (if a.at_total_us > 0.0 then 100.0 *. r.row_self_us /. a.at_total_us
         else 0.0)
        r.row_count
        (r.row_minor_words /. 1000.0)
        (r.row_major_words /. 1000.0))
    a.at_rows;
  Format.fprintf ppf "  %-28s %12.3f %6.1f%% %10s %12.1f %12.1f@." "total"
    (a.at_total_us /. 1000.0)
    (if a.at_total_us > 0.0 then 100.0 *. sum /. a.at_total_us else 0.0)
    "" (sum_minor /. 1000.0) (sum_major /. 1000.0)

(* --- Chrome trace-event export ------------------------------------------ *)

(* Telemetry events live in their own process group (pid 1000) on the wall
   clock; workload events exported by {!Trace_export} keep their device
   pids on the simulated clock.  The sim_t0/sim_t1 args are the bridge
   between the two timelines. *)
let telemetry_pid = 1000

let chrome_events () =
  let evs = ref [] in
  let add s = evs := s :: !evs in
  add
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"pasta-telemetry"}}|}
       telemetry_pid);
  let tids = Hashtbl.create 4 in
  (match !spans_store with
  | None -> ()
  | Some b ->
      Span_buf.iter b (fun sp ->
          if not (Hashtbl.mem tids sp.Span_buf.sp_tid) then begin
            Hashtbl.add tids sp.Span_buf.sp_tid ();
            add
              (Printf.sprintf
                 {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"domain%d"}}|}
                 telemetry_pid sp.Span_buf.sp_tid sp.Span_buf.sp_tid)
          end;
          add
            (Printf.sprintf
               {|{"name":%s,"cat":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"device":%d,"sim_t0_us":%.3f,"sim_t1_us":%.3f}}|}
               Pasta_util.Njson.(to_string (Str sp.Span_buf.sp_name))
               Pasta_util.Njson.(to_string (Str sp.Span_buf.sp_cat))
               (sp.Span_buf.sp_wall0_us -. !epoch)
               sp.Span_buf.sp_dur_us telemetry_pid sp.Span_buf.sp_tid
               sp.Span_buf.sp_dev sp.Span_buf.sp_sim0_us
               sp.Span_buf.sp_sim1_us)));
  List.iter
    (fun (t, v) ->
      add
        (Printf.sprintf
           {|{"name":"ring_buffer_records","ph":"C","ts":%.3f,"pid":%d,"tid":0,"args":{"records":%.0f}}|}
           (t -. !epoch) telemetry_pid v))
    (occ_samples ());
  List.rev !evs

let write_chrome_trace path =
  begin_span Export "telemetry.chrome";
  let evs = chrome_events () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc {|{"traceEvents":[|};
      List.iteri
        (fun i e ->
          if i > 0 then output_char oc ',';
          output_string oc e)
        evs;
      output_string oc {|],"displayTimeUnit":"ms"}|});
  end_span Export

(* --- Prometheus export -------------------------------------------------- *)

(* Fold the attribution state into gauges right before exposition, so the
   hot path never touches the registry. *)
let sync_metrics () =
  let a = attribution () in
  Metric.set_gauge
    (Metric.gauge reg ~help:"wall time covered by the attribution window"
       "pasta_telemetry_window_us")
    a.at_total_us;
  let c = ctx () in
  for i = 0 to cat_count - 1 do
    Metric.set_gauge
      (Metric.gauge reg ~help:"self wall time per pipeline layer"
         ~labels:[ ("layer", cat_label_of_index i) ] "pasta_layer_self_us")
      c.self.(i);
    Metric.set_gauge
      (Metric.gauge reg ~help:"minor words allocated per pipeline layer"
         ~labels:[ ("layer", cat_label_of_index i) ] "pasta_layer_minor_words")
      c.self_minor.(i);
    Metric.set_gauge
      (Metric.gauge reg ~help:"major words allocated per pipeline layer"
         ~labels:[ ("layer", cat_label_of_index i) ] "pasta_layer_major_words")
      c.self_major.(i)
  done;
  Mutex.lock slots_mu;
  Hashtbl.iter
    (fun _ s ->
      Metric.set_gauge
        (Metric.gauge reg ~help:"self wall time per tool"
           ~labels:[ ("tool", s.ts_name) ] "pasta_tool_self_us")
        s.ts_used.wall;
      Metric.set
        (Metric.counter reg ~help:"guarded tool callback invocations"
           ~labels:[ ("tool", s.ts_name) ] "pasta_tool_calls")
        s.ts_calls)
    slots;
  Mutex.unlock slots_mu;
  Metric.set
    (Metric.counter reg ~help:"unbalanced span ends observed"
       "pasta_telemetry_span_mismatches")
    c.mismatches;
  match !spans_store with
  | None -> ()
  | Some b ->
      Metric.set
        (Metric.counter reg ~help:"spans recorded to the cyclic store"
           "pasta_telemetry_spans_recorded")
        (Span_buf.pushed b);
      Metric.set
        (Metric.counter reg ~help:"spans overwritten in the cyclic store"
           "pasta_telemetry_spans_dropped")
        (Span_buf.dropped b)

let prometheus ?(extra = []) () =
  sync_metrics ();
  Metric.to_prometheus_all (extra @ [ reg ])

let write_prometheus ?extra path =
  let body = prometheus ?extra () in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body)
