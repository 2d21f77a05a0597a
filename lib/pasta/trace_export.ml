(* Trace Event Format reference:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU *)

type trace_event = {
  name : string;
  cat : string;
  ph : string;  (* "X" duration, "i" instant, "C" counter *)
  ts : float;  (* microseconds *)
  dur : float option;
  pid : int;
  tid : int;
  arg : (string * string) list;  (* rendered into "args" *)
}

type t = {
  mutable events : trace_event list; (* reverse order *)
  mutable count : int;
  mutable track_groups : (int * string) list; (* pid -> group name, reverse *)
  open_kernels : (int, float) Hashtbl.t; (* grid_id -> begin ts *)
  open_ops : (int, string * float) Hashtbl.t; (* seq -> (name, begin ts) *)
}

let create () =
  {
    events = [];
    count = 0;
    track_groups = [];
    open_kernels = Hashtbl.create 32;
    open_ops = Hashtbl.create 32;
  }

let set_track_group t ~pid name =
  if not (List.mem_assoc pid t.track_groups) then
    t.track_groups <- (pid, name) :: t.track_groups

let push t ev =
  t.events <- ev :: t.events;
  t.count <- t.count + 1

let event_count t = t.count

(* Track ids keep the trace readable: GPU kernels, framework operators and
   runtime calls land on separate rows. *)
let tid_kernels = 1
let tid_operators = 2
let tid_memory = 3
let tid_api = 4
let tid_regions = 5

let record t (e : Event.t) =
  let pid = e.Event.device in
  let ts = e.Event.time_us in
  match e.Event.payload with
  | Event.Kernel_launch { info; phase = `Begin } ->
      Hashtbl.replace t.open_kernels info.Event.grid_id ts
  | Event.Kernel_launch { info; phase = `End summary } -> (
      match Hashtbl.find_opt t.open_kernels info.Event.grid_id with
      | None -> ()
      | Some t0 ->
          Hashtbl.remove t.open_kernels info.Event.grid_id;
          push t
            {
              name = info.Event.name;
              cat = "kernel";
              ph = "X";
              ts = t0;
              dur = Some (Float.max summary.Event.duration_us (ts -. t0));
              pid;
              tid = tid_kernels;
              arg =
                [
                  ("grid", Gpusim.Dim3.to_string info.Event.grid);
                  ("block", Gpusim.Dim3.to_string info.Event.block);
                  ("accesses", string_of_int summary.Event.true_accesses);
                ];
            })
  | Event.Operator { name; phase = `Enter; seq } ->
      Hashtbl.replace t.open_ops seq (name, ts)
  | Event.Operator { phase = `Exit; seq; _ } -> (
      match Hashtbl.find_opt t.open_ops seq with
      | None -> ()
      | Some (name, t0) ->
          Hashtbl.remove t.open_ops seq;
          push t
            {
              name;
              cat = "operator";
              ph = "X";
              ts = t0;
              dur = Some (ts -. t0);
              pid;
              tid = tid_operators;
              arg = [];
            })
  | Event.Memory_alloc { addr; bytes; managed } ->
      push t
        {
          name = "alloc";
          cat = "memory";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_memory;
          arg =
            [
              ("addr", Printf.sprintf "0x%x" addr);
              ("bytes", string_of_int bytes);
              ("managed", string_of_bool managed);
            ];
        }
  | Event.Memory_free { addr; bytes } ->
      push t
        {
          name = "free";
          cat = "memory";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_memory;
          arg = [ ("addr", Printf.sprintf "0x%x" addr); ("bytes", string_of_int bytes) ];
        }
  | Event.Tensor_alloc { pool_allocated; _ } | Event.Tensor_free { pool_allocated; _ } ->
      push t
        {
          name = "framework memory";
          cat = "memory";
          ph = "C";
          ts;
          dur = None;
          pid;
          tid = tid_memory;
          arg = [ ("allocated", string_of_int pool_allocated) ];
        }
  | Event.Annotation { label; phase } ->
      push t
        {
          name = Printf.sprintf "pasta.%s" (match phase with `Start -> "start" | `End -> "end");
          cat = "annotation";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_operators;
          arg = [ ("label", label) ];
        }
  | Event.Tool_quarantined { tool; failures } ->
      push t
        {
          name = "tool quarantined";
          cat = "supervision";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_operators;
          arg = [ ("tool", tool); ("failures", string_of_int failures) ];
        }
  | Event.Memory_copy { bytes; direction; _ } ->
      push t
        {
          name = Format.asprintf "memcpy %a" Event.pp_direction direction;
          cat = "transfer";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_memory;
          arg = [ ("bytes", string_of_int bytes) ];
        }
  | Event.Device_summary { kernel; summary } ->
      (* Instant on the kernel row, carrying the merged device-side
         reduction: object count and exact weighted totals. *)
      push t
        {
          name = Printf.sprintf "%s summary" kernel.Event.name;
          cat = "device_summary";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_kernels;
          arg =
            [
              ("objects", string_of_int (List.length summary.Devagg.objects));
              ("true_accesses", string_of_int summary.Devagg.true_accesses);
              ("writes", string_of_int summary.Devagg.writes);
              ("sampled_records", string_of_int summary.Devagg.sampled_records);
            ];
        }
  | Event.Kernel_profile { kernel; profile } ->
      push t
        {
          name = Printf.sprintf "%s profile" kernel.Event.name;
          cat = "kernel_profile";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_kernels;
          arg =
            [
              ("branches", string_of_int profile.Gpusim.Kernel.branches);
              ( "divergent_branches",
                string_of_int profile.Gpusim.Kernel.divergent_branches );
              ( "bank_conflicts",
                string_of_int profile.Gpusim.Kernel.bank_conflicts );
              ( "barrier_stall_us",
                Printf.sprintf "%.3f" profile.Gpusim.Kernel.barrier_stall_us );
              ( "redundant_loads",
                string_of_int profile.Gpusim.Kernel.redundant_loads );
            ];
        }
  (* Host API surface: one instant per completed call keeps the row light
     (the paired Enter carries no extra information in this vocabulary). *)
  | Event.Driver_call { name; phase = `Exit } ->
      push t
        { name; cat = "driver_api"; ph = "i"; ts; dur = None; pid; tid = tid_api; arg = [] }
  | Event.Runtime_call { name; phase = `Exit } ->
      push t
        { name; cat = "runtime_api"; ph = "i"; ts; dur = None; pid; tid = tid_api; arg = [] }
  | Event.Driver_call { phase = `Enter; _ } | Event.Runtime_call { phase = `Enter; _ } -> ()
  | Event.Memory_set { addr; bytes; value } ->
      push t
        {
          name = "memset";
          cat = "memory";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_memory;
          arg =
            [
              ("addr", Printf.sprintf "0x%x" addr);
              ("bytes", string_of_int bytes);
              ("value", string_of_int value);
            ];
        }
  | Event.Region_exit { kernel; span } ->
      (* A region's timed span is fully known at exit, so it becomes one
         complete slice on the nested region track; the matching
         Region_enter carries no extra information and is dropped. *)
      push t
        {
          name = span.Event.rg_label;
          cat = "region";
          ph = "X";
          ts = span.Event.rg_start_us;
          dur = Some span.Event.rg_time_us;
          pid;
          tid = tid_regions;
          arg =
            [
              ("region_id", Printf.sprintf "0x%x" span.Event.rg_id);
              ("kernel", kernel.Event.name);
              ("pcs", Printf.sprintf "[0x%x,0x%x)" span.Event.rg_start_pc span.Event.rg_end_pc);
              ("bytes", string_of_int span.Event.rg_bytes);
              ("flops", Printf.sprintf "%.0f" span.Event.rg_flops);
            ];
        }
  | Event.Region_enter _ -> ()
  | Event.Synchronization { scope } ->
      push t
        {
          name =
            (match scope with
            | `Device -> "deviceSynchronize"
            | `Stream s -> Printf.sprintf "streamSynchronize(%d)" s);
          cat = "sync";
          ph = "i";
          ts;
          dur = None;
          pid;
          tid = tid_api;
          arg = [];
        }
  | _ -> ()

(* A JSON string literal, quotes included. *)
let quote s = Pasta_util.Njson.(to_string (Str s))

let json_of_event e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"name":%s,"cat":%s,"ph":"%s","ts":%.3f,"pid":%d,"tid":%d|}
       (quote e.name) (quote e.cat) e.ph e.ts e.pid e.tid);
  (match e.dur with
  | Some d -> Buffer.add_string buf (Printf.sprintf {|,"dur":%.3f|} d)
  | None -> ());
  if e.arg <> [] then begin
    Buffer.add_string buf {|,"args":{|};
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf {|%s:%s|} (quote k) (quote v)))
      e.arg;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_json ?(extra = []) t =
  let buf = Buffer.create 4096 in
  let emitted = ref 0 in
  let emit s =
    if !emitted > 0 then Buffer.add_char buf ',';
    incr emitted;
    Buffer.add_string buf s
  in
  Buffer.add_string buf {|{"traceEvents":[|};
  (* Track-group metadata first: one process_name (and a stable sort
     index) per registered pid, so a mixed-backend export renders one
     named track group per backend. *)
  List.iteri
    (fun i (pid, name) ->
      emit
        (Printf.sprintf
           {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}|}
           pid (quote name));
      emit
        (Printf.sprintf
           {|{"name":"process_sort_index","ph":"M","pid":%d,"args":{"sort_index":%d}}|}
           pid i))
    (List.rev t.track_groups);
  List.iter (fun e -> emit (json_of_event e)) (List.rev t.events);
  (* [extra]: pre-rendered trace-event objects (e.g.
     {!Telemetry.chrome_events}) spliced into the same array, so one file
     carries the workload and the framework's self-telemetry. *)
  List.iter emit extra;
  Buffer.add_string buf {|],"displayTimeUnit":"ms"}|};
  Buffer.contents buf

let write_file ?extra t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ?extra t))

let tool t =
  {
    (Tool.default "trace_export") with
    Tool.on_event = record t;
    report =
      (fun ppf ->
        Format.fprintf ppf "trace_export: %d trace events materialized@." t.count);
  }
