module Metric = Pasta_util.Metric

(* Every processor owns one metrics registry; handles below are the hot
   paths' direct pointers into it. *)
type counters = {
  reg : Metric.t;
  c_events_seen : Metric.counter;
  c_events_dispatched : Metric.counter;
  c_events_suppressed : Metric.counter;
  c_kernels_seen : Metric.counter;
  c_summaries_flushed : Metric.counter;
  c_tool_failures : Metric.counter;
  c_records_dropped : Metric.counter;
  g_records_buffered_peak : Metric.gauge;
  c_buffer_stalls : Metric.counter;
  c_accesses_filtered : Metric.counter;
  c_batches_delivered : Metric.counter;
  c_objmap_memo_hits : Metric.counter;
  c_objmap_memo_misses : Metric.counter;
  g_sample_rate : Metric.gauge;
  c_rate_changes : Metric.counter;
  c_events_recorded : Metric.counter;
  c_bytes_written : Metric.counter;
  c_chunks : Metric.counter;
  c_chunks_skipped : Metric.counter;
  c_replay_events : Metric.counter;
}

let callback_failures_metric = "pasta_callback_failures"

(* Every series a processor owns carries its device id as a label, so
   expositions merged across a fleet ([Telemetry.prometheus ~extra]) keep
   per-device resolution instead of colliding on bare names. *)
let device_labels device = [ ("device", string_of_int device) ]

(* Mixed-backend sessions additionally label every series with the vendor
   backend feeding the processor (like the fleet's [sp_dev] device label),
   so merged expositions keep per-backend resolution. *)
let backend_labels device label =
  match label with
  | None -> device_labels device
  | Some l -> ("backend", l) :: device_labels device

let make_counters ~device ?label () =
  let reg = Metric.create () in
  let labels = backend_labels device label in
  let c ?help name = Metric.counter reg ?help ~labels name in
  {
    reg;
    c_events_seen = c ~help:"normalized events submitted" "pasta_events_seen";
    c_events_dispatched =
      c ~help:"events delivered to the tool" "pasta_events_dispatched";
    c_events_suppressed =
      c ~help:"events withheld while the tool was quarantined"
        "pasta_events_suppressed";
    c_kernels_seen = c ~help:"kernel launches observed" "pasta_kernels_seen";
    c_summaries_flushed =
      c ~help:"kernel-end summaries flushed" "pasta_summaries_flushed";
    c_tool_failures =
      c ~help:"tool callback exceptions caught" "pasta_tool_failures";
    c_records_dropped =
      c ~help:"fine-grained records lost to buffer overflow"
        "pasta_records_dropped";
    g_records_buffered_peak =
      Metric.gauge reg ~help:"bounded-buffer high-water mark, records"
        ~labels "pasta_records_buffered_peak";
    c_buffer_stalls =
      c ~help:"producer stalls under the block overflow policy"
        "pasta_buffer_stalls";
    c_accesses_filtered =
      c ~help:"access records withheld by the range filter"
        "pasta_accesses_filtered";
    c_batches_delivered =
      c ~help:"packed batches handed to a batch-aware tool"
        "pasta_batches_delivered";
    c_objmap_memo_hits = c ~help:"objmap resolve-memo hits" "pasta_objmap_memo_hits";
    c_objmap_memo_misses =
      c ~help:"objmap resolve-memo misses" "pasta_objmap_memo_misses";
    g_sample_rate =
      (let g =
         Metric.gauge reg ~help:"effective fine-grained sampling rate"
           ~labels "pasta_sample_rate"
       in
       Metric.set_gauge g 1.0;
       g);
    c_rate_changes =
      c ~help:"sampling-rate adjustments applied" "pasta_sample_rate_changes";
    c_events_recorded =
      c ~help:"submission-level ops written by trace capture"
        "pasta_events_recorded";
    c_bytes_written =
      c ~help:"bytes the trace capture has flushed" "pasta_bytes_written";
    c_chunks = c ~help:"trace chunks written (capture) or read (replay)" "pasta_trace_chunks";
    c_chunks_skipped =
      c ~help:"corrupt chunks skipped by a tolerant replay"
        "pasta_trace_chunks_skipped";
    c_replay_events =
      c ~help:"submission-level ops re-driven from a recorded trace"
        "pasta_replay_events";
  }

(* Submission-level operations, as seen by a trace sink.  One constructor
   per processor entry point: a recorded op stream re-driven through the
   same entry points reproduces the exact callback sequence the live tool
   saw — the replay contract. *)
type sink_op =
  | Sk_event of Event.payload
  | Sk_batch of Event.kernel_info * Gpusim.Warp.batch
  | Sk_region of Event.kernel_info * Event.region_summary
  | Sk_flush_summary of Event.kernel_info
  | Sk_flush_parallel of Event.kernel_info
  | Sk_profile of Event.kernel_info * Gpusim.Kernel.profile
  | Sk_rate of { sr_rate : float; sr_grid_id : int }
      (** effective sampling-rate change, recorded at the launch it first
          applies to; the implicit initial rate is 1.0, so rate-1.0 runs
          never emit this op and their traces are unchanged *)

type pending_region = { p_base : int; p_extent : int; p_accesses : int; p_written : bool }

type clock = { mutable last_time_us : float }  (* all floats: a stamp is stored unboxed *)

module W = Gpusim.Warp

type t = {
  device : int;
  label : string option;  (** backend label for mixed-backend sessions *)
  objmap : Objmap.t;
  range : Range.t;
  mutable guard : Guard.t option;
  ctr : counters;
  (* The bounded buffer (paper Fig. 2a's device trace buffer): a ring of
     parallel arrays, one piece of a hand-off per slot, grown by doubling
     up to [r_cap] slots, so it takes the room its pieces need.  All
     drop/peak accounting counts records, a piece its length. *)
  mutable r_info : Event.kernel_info array;
  mutable r_batch : W.batch array;
  mutable r_pos : int array;
  mutable r_len : int array;
  mutable r_head : int;  (* the oldest piece's slot *)
  mutable r_used : int;
  r_cap : int;
  policy : Config.overflow;
  mutable pool : Pasta_util.Domain_pool.t option;
  mutable dev_accums : Devagg.accum array;
      (* per-worker aggregation state, reused across kernels; sized to the
         pool on first parallel flush *)
  region_metrics : (string, Metric.counter * Metric.gauge) Hashtbl.t;
      (* region label -> its (slices, time) series handles *)
  mutable buffered_records : int;  (* records currently in the ring *)
  mutable incidents : Event.t list; (* most recent first *)
  clock : clock;
  mutable pending : (int * pending_region list) option;
      (** (grid_id, regions) of the kernel currently being aggregated *)
  mutable cur_rate : float;
      (** effective sampling rate behind incoming batches (stamped onto
          Devagg summaries as [est_rate]); updated through {!note_rate} *)
  mutable sink : (time_us:float -> sink_op -> unit) option;
      (** trace-capture tap, fed every submission before range filtering *)
}

let create ?range ?buffer_capacity ?overflow_policy ?label ~device () =
  let range = match range with Some r -> r | None -> Range.of_config () in
  let capacity =
    match buffer_capacity with Some c -> c | None -> Config.buffer_capacity ()
  in
  let policy =
    match overflow_policy with Some p -> p | None -> Config.overflow_policy ()
  in
  if capacity <= 0 then invalid_arg "Processor.create: buffer capacity must be positive";
  {
    device;
    label;
    objmap = Objmap.create ();
    range;
    guard = None;
    ctr = make_counters ~device ?label ();
    r_info = [||];
    r_batch = [||];
    r_pos = [||];
    r_len = [||];
    r_head = 0;
    r_used = 0;
    r_cap = capacity;
    policy;
    pool = None;
    dev_accums = [||];
    region_metrics = Hashtbl.create 16;
    buffered_records = 0;
    incidents = [];
    clock = { last_time_us = 0.0 };
    pending = None;
    cur_rate = 1.0;
    sink = None;
  }

let objmap t = t.objmap
let range t = t.range
let device t = t.device
let metrics t = t.ctr.reg
let metric_labels t = backend_labels t.device t.label
let backend_label t = t.label

let sync_objmap_metrics t =
  let hits, misses = Objmap.memo_stats t.objmap in
  Metric.set t.ctr.c_objmap_memo_hits hits;
  Metric.set t.ctr.c_objmap_memo_misses misses

let set_pool t p = t.pool <- Some p
let clear_pool t = t.pool <- None

let set_sink t f = t.sink <- Some f
let clear_sink t = t.sink <- None

(* The sink's encode and write are charged to the capture layer. *)
let tap t ~time_us op =
  match t.sink with
  | None -> ()
  | Some f ->
      Telemetry.begin_span Telemetry.Capture_io "capture.write_op";
      f ~time_us op;
      Telemetry.end_span Telemetry.Capture_io

let guard t = t.guard
let tool t = Option.map Guard.tool t.guard
let incidents t = List.rev t.incidents
let buffer_capacity t = t.r_cap
let overflow_policy t = t.policy

let guard_call t cb f =
  match t.guard with None -> () | Some g -> Guard.call g cb f

let count_dispatch t g =
  match Guard.state g with
  | Guard.Quarantined -> Metric.incr t.ctr.c_events_suppressed
  | Guard.Closed | Guard.Half_open -> Metric.incr t.ctr.c_events_dispatched

let on_event tool ev () = tool.Tool.on_event ev
let on_kernel_begin tool info () = tool.Tool.on_kernel_begin info
let on_kernel_end tool info stats = tool.Tool.on_kernel_end info stats
let on_operator tool (name, phase) seq = tool.Tool.on_operator name phase seq
let on_tensor tool change () = tool.Tool.on_tensor change

(* One coarse event: [on_event], then its structured callback, inside one
   tool frame. *)
let dispatch t (ev : Event.t) =
  match t.guard with
  | None -> ()
  | Some g ->
      count_dispatch t g;
      Guard.framed g (fun () ->
          Guard.call_in_frame g Guard.On_event on_event ev ();
          match ev.Event.payload with
          | Event.Kernel_launch { info; phase = `Begin } ->
              Guard.call_in_frame g Guard.On_kernel_begin on_kernel_begin info ()
          | Event.Kernel_launch { info; phase = `End s } ->
              Guard.call_in_frame g Guard.On_kernel_end on_kernel_end info s
          | Event.Operator { name; phase; seq } ->
              Guard.call_in_frame g Guard.On_operator on_operator (name, phase) seq
          | Event.Tensor_alloc { ptr; bytes; tag; _ } ->
              Guard.call_in_frame g Guard.On_tensor on_tensor (`Alloc (ptr, bytes, tag)) ()
          | Event.Tensor_free { ptr; bytes; _ } ->
              Guard.call_in_frame g Guard.On_tensor on_tensor (`Free (ptr, bytes)) ()
          | _ -> ())

let quarantine_incident t ~failures =
  let tool_name = match tool t with Some tl -> tl.Tool.name | None -> "<none>" in
  let ev =
    {
      Event.device = t.device;
      time_us = t.clock.last_time_us;
      payload = Event.Tool_quarantined { tool = tool_name; failures };
    }
  in
  t.incidents <- ev :: t.incidents;
  (* Keep the unified stream complete; the quarantined tool itself will
     only see this if it is later reinstated and another trip occurs. *)
  dispatch t ev

let set_tool t tool =
  let ctr = t.ctr in
  let guard =
    Guard.create
      ~on_failure:(fun cb ->
        Metric.incr ctr.c_tool_failures;
        Metric.incr
          (Metric.counter ctr.reg
             ~help:"per-callback tool failures"
             ~labels:
               (("callback", Guard.callback_name cb)
               :: backend_labels t.device t.label)
             callback_failures_metric))
      ~on_trip:(fun ~failures -> quarantine_incident t ~failures)
      tool
  in
  t.guard <- Some guard

let clear_tool t = t.guard <- None

let in_range t payload =
  match payload with
  | Event.Kernel_launch { info; _ }
  | Event.Device_summary { kernel = info; _ }
  | Event.Shared_access { kernel = info; _ }
  | Event.Kernel_region { kernel = info; _ }
  | Event.Kernel_profile { kernel = info; _ }
  | Event.Barrier { kernel = info; _ }
  | Event.Region_enter { kernel = info; _ }
  | Event.Region_exit { kernel = info; _ } ->
      Range.active t.range ~grid_id:info.Event.grid_id
  | _ -> Range.active_now t.range

(* --- Bounded record buffer (paper Fig. 2a's device trace buffer) --- *)

(* One record of the paper's CS-CPU/NVBit model is one [on_access] call.
   The callbacks are closed functions that take their arguments from the
   guard, so a record allocates its [access] and nothing else. *)
let on_access tool info access = tool.Tool.on_access info access

let next_access (c : W.cursor) =
  W.next c;
  {
    Event.addr = c.W.c_addr;
    size = c.W.c_size;
    write = c.W.c_write;
    pc = c.W.c_pc;
    warp = c.W.c_warp;
    weight = c.W.c_weight;
  }

let on_next_access tool info c = tool.Tool.on_access info (next_access c)

let slot t k = if k >= Array.length t.r_len then k - Array.length t.r_len else k
let skipped skip (info : Event.kernel_info) = Option.equal Int.equal skip (Some info.grid_id)

(* The per-record stream of the [n] buffered pieces from slot [head]
   (those of kernel [skip] passed over), inside the caller's tool frame,
   read through a cursor: a descriptor's records are stepped from its
   formulas, never filled.  Consecutive pieces of one batch and kernel
   that continue each other (a channel's flushes inside a batch) are one
   run and one seek.  While the breaker is closed, the guard runs a run's
   records in one loop, counted in [events_dispatched] once; a
   quarantined or half-open breaker takes one guarded call per record,
   counted as dispatched or suppressed, on the same cursor. *)
let deliver_records t g c ?skip head n =
  let k = ref head in
  while !k < head + n do
    let i = slot t !k in
    let info = t.r_info.(i) and b = t.r_batch.(i) and pos = t.r_pos.(i) in
    let len = ref t.r_len.(i) and j = ref (slot t (!k + 1)) in
    incr k;
    while
      !k < head + n && t.r_batch.(!j) == b && t.r_info.(!j) == info && t.r_pos.(!j) = pos + !len
    do
      len := !len + t.r_len.(!j);
      incr k;
      j := slot t !k
    done;
    if not (skipped skip info) then begin
      W.seek c b ~pos ~len:!len;
      let left = ref !len in
      while !left > 0 do
        let ran = Guard.call_while_closed g Guard.On_access on_next_access info c !left in
        Metric.add t.ctr.c_events_dispatched ran;
        left := !left - ran;
        if !left > 0 then begin
          count_dispatch t g;
          Guard.call_in_frame g Guard.On_access on_access info (next_access c);
          decr left
        end
      done
    end
  done

let on_columns tool info batch =
  match tool.Tool.on_access_columns with Some f -> f info batch | None -> ()

(* The same pieces for a columns tool, one call per piece: the tool reads
   the batch's Bigarray columns in place (a zero-copy [W.sub] of a dense
   batch's piece) — no [Event.t] wrapper, no per-record closures. *)
let deliver_columns t g ?skip head n =
  for k = head to head + n - 1 do
    let i = slot t k in
    let info = t.r_info.(i) in
    if not (skipped skip info) then begin
      Metric.incr t.ctr.c_batches_delivered;
      Guard.call_in_frame g Guard.On_access_columns on_columns info
        (W.sub t.r_batch.(i) ~pos:t.r_pos.(i) ~len:t.r_len.(i))
    end
  done

(* Hand [n] drained pieces from slot [head] to the tool in order, the
   whole drain inside one tool frame, so the clock is read twice per
   drain, not per piece or per record. *)
let deliver t ?skip head n =
  match t.guard with
  | Some g when n > 0 ->
      if (Guard.tool g).Tool.on_access_columns <> None then
        Guard.framed g (fun () -> deliver_columns t g ?skip head n)
      else
        let c = W.cursor () in
        Guard.framed g (fun () -> deliver_records t g c ?skip head n)
  | _ -> ()

(* Empty the ring and run [f head n] over its [n] pieces from slot
   [head], then clear their batches, so the ring keeps none alive. *)
let drain t f =
  let head = t.r_head and n = t.r_used in
  Telemetry.begin_span Telemetry.Ring "ring.drain";
  t.r_head <- 0;
  t.r_used <- 0;
  t.buffered_records <- 0;
  Telemetry.sample_ring_occupancy 0;
  Telemetry.end_span Telemetry.Ring;
  let x = f head n in
  let wrapped = head + n - Array.length t.r_batch in
  Array.fill t.r_batch head (n - Int.max 0 wrapped) W.empty;
  if wrapped > 0 then Array.fill t.r_batch 0 wrapped W.empty;
  x

let flush_records t = drain t (fun head n -> deliver t head n)

(* Double a full ring's arrays.  Only drop-oldest moves the head off
   slot 0 without a drain, and only at full capacity, so the pieces of a
   ring that can still grow start at slot 0. *)
let grow t info =
  let m = Int.min t.r_cap (Int.max 16 (2 * t.r_used)) - t.r_used in
  t.r_info <- Array.append t.r_info (Array.make m info);
  t.r_batch <- Array.append t.r_batch (Array.make m W.empty);
  t.r_pos <- Array.append t.r_pos (Array.make m 0);
  t.r_len <- Array.append t.r_len (Array.make m 0)

(* One push with its drop/stall accounting, inside the caller's Ring
   span. *)
let push_piece t info b ~pos ~len =
  if t.r_used = Array.length t.r_len && t.r_used < t.r_cap then grow t info;
  let store =
    t.r_used < Array.length t.r_len
    ||
    match t.policy with
    | Config.Drop_newest ->
        Metric.add t.ctr.c_records_dropped len;
        false
    | Config.Drop_oldest ->
        Metric.add t.ctr.c_records_dropped t.r_len.(t.r_head);
        t.buffered_records <- t.buffered_records - t.r_len.(t.r_head);
        t.r_head <- slot t (t.r_head + 1);
        t.r_used <- t.r_used - 1;
        true
    | Config.Block ->
        (* The producer stalls while the consumer drains, then the piece
           lands; nothing is lost. *)
        Metric.incr t.ctr.c_buffer_stalls;
        Telemetry.end_span Telemetry.Ring;
        flush_records t;
        Telemetry.begin_span Telemetry.Ring "ring.push";
        true
  in
  if store then begin
    let i = slot t (t.r_head + t.r_used) in
    t.r_info.(i) <- info;
    t.r_batch.(i) <- b;
    t.r_pos.(i) <- pos;
    t.r_len.(i) <- len;
    t.r_used <- t.r_used + 1;
    t.buffered_records <- t.buffered_records + len
  end;
  Metric.max_gauge t.ctr.g_records_buffered_peak (float_of_int t.buffered_records);
  Telemetry.sample_ring_occupancy t.buffered_records

(* Region-labelled series are find-or-create in the registry, which costs
   a key build, the registry lock and a string hash per call.  The label
   set is bounded by the instrumentation pass's span vocabulary, so each
   label's handles are looked up once per processor and cached. *)
let region_metrics t label =
  match Hashtbl.find_opt t.region_metrics label with
  | Some handles -> handles
  | None ->
      let labels = ("region", label) :: backend_labels t.device t.label in
      let slices =
        Metric.counter t.ctr.reg ~help:"intra-kernel region exits observed"
          ~labels "pasta_region_slices"
      in
      let time =
        Metric.gauge t.ctr.reg
          ~help:"cumulative kernel time attributed to the region" ~labels
          "pasta_region_time_us"
      in
      Hashtbl.add t.region_metrics label (slices, time);
      (slices, time)

let submit_one t ~time_us payload =
  tap t ~time_us (Sk_event payload);
  Metric.incr t.ctr.c_events_seen;
  t.clock.last_time_us <- time_us;
  Event.update_objmap t.objmap payload;
  (match payload with
  | Event.Kernel_launch { phase = `Begin; _ } ->
      Metric.incr t.ctr.c_kernels_seen;
      Option.iter Guard.note_kernel t.guard
  | Event.Kernel_launch { phase = `End _; _ } ->
      (* Kernel boundary: drain the record buffer so every record of this
         kernel reaches the tool before its on_kernel_end. *)
      flush_records t
  | Event.Region_exit { span; _ } ->
      let slices, time = region_metrics t span.Event.rg_label in
      Metric.incr slices;
      Metric.add_gauge time span.Event.rg_time_us
  | _ -> ());
  if in_range t payload then
    dispatch t { Event.device = t.device; time_us; payload }

let submit_all t ~time_us payloads =
  match payloads with
  | [] -> ()
  | payloads ->
      Telemetry.begin_span Telemetry.Dispatch "proc.submit";
      List.iter (submit_one t ~time_us) payloads;
      Telemetry.end_span Telemetry.Dispatch

let submit t ~time_us payload = submit_all t ~time_us [ payload ]

let submit_region t (info : Event.kernel_info) ~base ~extent ~accesses ~written =
  tap t ~time_us:t.clock.last_time_us
    (Sk_region (info, { Event.base; extent; accesses; written }));
  let region = { p_base = base; p_extent = extent; p_accesses = accesses; p_written = written } in
  match t.pending with
  | Some (gid, regions) when gid = info.Event.grid_id ->
      t.pending <- Some (gid, region :: regions)
  | _ -> t.pending <- Some (info.Event.grid_id, [ region ])

let flush_kernel_summary t ~time_us (info : Event.kernel_info) =
  Telemetry.begin_span Telemetry.Dispatch "proc.flush_summary";
  tap t ~time_us (Sk_flush_summary info);
  (match t.pending with
  | Some (gid, regions) when gid = info.Event.grid_id ->
      t.pending <- None;
      t.clock.last_time_us <- time_us;
      Metric.incr t.ctr.c_summaries_flushed;
      if Range.active t.range ~grid_id:info.Event.grid_id then begin
        (* Emit one Kernel_region event per raw region... *)
        List.iter
          (fun r ->
            dispatch t
              {
                Event.device = t.device;
                time_us;
                payload =
                  Event.Kernel_region
                    {
                      kernel = info;
                      region =
                        {
                          Event.base = r.p_base;
                          extent = r.p_extent;
                          accesses = r.p_accesses;
                          written = r.p_written;
                        };
                    };
              })
          (List.rev regions);
        (* ...and the object-level aggregate for the tool. *)
        match t.guard with
        | None -> ()
        | Some g ->
            let by_obj = Hashtbl.create 8 in
            List.iter
              (fun r ->
                let obj = Objmap.resolve t.objmap r.p_base in
                let key = Objmap.obj_key obj in
                match Hashtbl.find_opt by_obj key with
                | Some (o, count) -> Hashtbl.replace by_obj key (o, count + r.p_accesses)
                | None -> Hashtbl.add by_obj key (obj, r.p_accesses))
              regions;
            let summary =
              Hashtbl.fold (fun _ (o, c) acc -> (o, c) :: acc) by_obj []
              |> List.sort (fun (a, _) (b, _) -> compare (Objmap.obj_key a) (Objmap.obj_key b))
            in
            Guard.call g Guard.On_mem_summary (fun tool ->
                tool.Tool.on_mem_summary info summary)
      end
  | _ -> ());
  Telemetry.end_span Telemetry.Dispatch

(* A hand-off taps all of its pieces, each as its own [Sk_batch] op (a
   [W.sub], built only for a sink), under one capture span before it
   pushes any of them; no delivery path taps, so the recorded op order is
   the one per-piece submission would give. *)
let submit_pieces t (info : Event.kernel_info) (p : W.pieces) =
  if p.W.p_stamped < p.W.p_count then invalid_arg "Processor.submit_pieces: unstamped piece";
  Telemetry.begin_span Telemetry.Dispatch "proc.submit_pieces";
  (match t.sink with
  | None -> ()
  | Some f ->
      Telemetry.begin_span Telemetry.Capture_io "capture.write_op";
      for i = 0 to p.W.p_count - 1 do
        f ~time_us:p.W.p_time.(i)
          (Sk_batch (info, W.sub p.W.p_batch.(i) ~pos:p.W.p_pos.(i) ~len:p.W.p_len.(i)))
      done;
      Telemetry.end_span Telemetry.Capture_io);
  let active = Range.active t.range ~grid_id:info.Event.grid_id in
  if active then Telemetry.begin_span Telemetry.Ring "ring.push";
  for i = 0 to p.W.p_count - 1 do
    let len = p.W.p_len.(i) in
    t.clock.last_time_us <- p.W.p_time.(i);
    Metric.add t.ctr.c_events_seen len;
    if active then push_piece t info p.W.p_batch.(i) ~pos:p.W.p_pos.(i) ~len
    else Metric.add t.ctr.c_accesses_filtered len
  done;
  if active then Telemetry.end_span Telemetry.Ring;
  Telemetry.end_span Telemetry.Dispatch

(* Deliver a device summary to the tool.  Called with a freshly merged
   aggregate on the live path, and with the recorded aggregate when a
   trace is replayed (the trace stores the [Device_summary] payload right
   after its flush marker, so replay re-drives it here instead of paying
   the aggregation again).  The [tap] makes re-recording a replayed run
   reproduce the original op stream. *)
let submit_device_summary t ~time_us (info : Event.kernel_info) summary =
  Telemetry.begin_span Telemetry.Dispatch "proc.device_summary";
  tap t ~time_us (Sk_event (Event.Device_summary { kernel = info; summary }));
  t.clock.last_time_us <- time_us;
  if Range.active t.range ~grid_id:info.Event.grid_id then begin
    Metric.incr t.ctr.c_summaries_flushed;
    dispatch t
      {
        Event.device = t.device;
        time_us;
        payload = Event.Device_summary { kernel = info; summary };
      };
    guard_call t Guard.On_device_summary (fun tool ->
        tool.Tool.on_device_summary info summary)
  end;
  Telemetry.end_span Telemetry.Dispatch

(* Drain this kernel's buffered batches at kernel end: batches belonging
   to other kernels are delivered as-is, this kernel's are returned for
   aggregation (live) or discarded (replay, which re-drives the recorded
   summary instead). *)
let drain_parallel t ~time_us (info : Event.kernel_info) =
  tap t ~time_us (Sk_flush_parallel info);
  t.clock.last_time_us <- time_us;
  drain t (fun head n ->
      let gid = info.Event.grid_id and mine = ref [] in
      for k = head + n - 1 downto head do
        let i = slot t k in
        if t.r_info.(i).Event.grid_id = gid then
          mine := W.sub t.r_batch.(i) ~pos:t.r_pos.(i) ~len:t.r_len.(i) :: !mine
      done;
      let mine = Array.of_list !mine in
      if Array.length mine < n then deliver t ~skip:gid head n;
      mine)

(* Kernel-end reduction for [Gpu_parallel] tools: drain this kernel's
   batches, reduce them into one accumulator per worker slot (over the
   pool when one is installed), merge once, and hand the tool a single
   summary.  Raw records never reach the tool.  [run_sharded] guarantees
   a slot is never executed by two domains at once, so the accumulators
   need no locks; [merge_accums] sums the tallies and sorts before
   emitting, so the summary does not depend on the chunk-to-worker
   assignment. *)
let flush_parallel_summary t ~time_us (info : Event.kernel_info) =
  let batches = drain_parallel t ~time_us info in
  if Array.length batches > 0 then begin
    Telemetry.begin_span Telemetry.Devagg "devagg.aggregate";
    let view = Objmap.view t.objmap in
    let want =
      match t.pool with
      | Some p -> Pasta_util.Domain_pool.parallelism p
      | None -> 1
    in
    (* Accumulators live as long as the processor: kernel N reuses the
       tables kernel N-1 grew, so steady state allocates nothing per
       kernel beyond the summary itself. *)
    let accums =
      if Array.length t.dev_accums <> want then begin
        t.dev_accums <- Array.init want (fun _ -> Devagg.accum_create ());
        t.dev_accums
      end
      else begin
        Array.iter Devagg.accum_reset t.dev_accums;
        t.dev_accums
      end
    in
    let is_dense b =
      match b.W.b_shape with W.Dense _ -> true | W.Descriptor _ -> false
    in
    let ndense = Array.fold_left (fun n b -> if is_dense b then n + 1 else n) 0 batches in
    (match t.pool with
    | Some p when want > 1 && ndense > 1 ->
        (* Only batches that carry records fan out.  Descriptors reduce
           by arithmetic in slot 0 first, never while the caller works
           slot 0 in the pool pass. *)
        let dense = ref [] in
        Array.iter
          (fun b ->
            if is_dense b then dense := b :: !dense
            else Devagg.accum_add accums.(0) view b)
          batches;
        let dense = Array.of_list (List.rev !dense) in
        Pasta_util.Domain_pool.run_sharded p ndense (fun ~worker i ->
            Devagg.accum_add accums.(worker) view dense.(i))
    | _ -> Array.iter (Devagg.accum_add accums.(0) view) batches);
    let merged = Devagg.merge_accums ~est_rate:t.cur_rate accums in
    Telemetry.end_span Telemetry.Devagg;
    submit_device_summary t ~time_us info merged
  end

(* Replay path for a recorded flush marker: the aggregate this flush
   produced live is stored in the trace right after the marker, so the
   buffered batches are dropped here and the summary is re-driven through
   {!submit_device_summary} when the reader reaches it. *)
let flush_parallel_drop t ~time_us (info : Event.kernel_info) =
  let (_ : W.batch array) = drain_parallel t ~time_us info in
  ()

let submit_profile t ~time_us (info : Event.kernel_info) profile =
  Telemetry.begin_span Telemetry.Dispatch "proc.submit_profile";
  tap t ~time_us (Sk_profile (info, profile));
  Metric.incr t.ctr.c_events_seen;
  t.clock.last_time_us <- time_us;
  if Range.active t.range ~grid_id:info.Event.grid_id then begin
    dispatch t
      {
        Event.device = t.device;
        time_us;
        payload = Event.Kernel_profile { kernel = info; profile };
      };
    guard_call t Guard.On_kernel_profile (fun tool ->
        tool.Tool.on_kernel_profile info profile)
  end;
  Telemetry.end_span Telemetry.Dispatch

(* Record an effective sampling-rate change.  Called by the sampler at the
   launch the new rate first applies to, and by replay when it reaches a
   recorded [Sk_rate] op; the tap makes re-recording a replayed run
   reproduce the original rate schedule. *)
let note_rate t ~time_us ~grid_id rate =
  tap t ~time_us (Sk_rate { sr_rate = rate; sr_grid_id = grid_id });
  t.clock.last_time_us <- time_us;
  t.cur_rate <- rate;
  Metric.set_gauge t.ctr.g_sample_rate rate;
  Metric.incr t.ctr.c_rate_changes

let current_sample_rate t = t.cur_rate

let annot_start t ~time_us label =
  Range.annot_start t.range label;
  submit t ~time_us (Event.Annotation { label; phase = `Start })

let annot_end t ~time_us label =
  Range.annot_end t.range label;
  submit t ~time_us (Event.Annotation { label; phase = `End })
