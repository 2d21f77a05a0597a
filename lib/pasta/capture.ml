module Metric = Pasta_util.Metric

type t = {
  cap_writer : Ptrace.writer;
  cap_proc : Processor.t;
  c_recorded : Metric.counter;
  c_bytes : Metric.counter;
  c_chunks : Metric.counter;
  mutable cap_open : bool;
}

let sync_stats t =
  Metric.set t.c_bytes (Ptrace.writer_bytes t.cap_writer);
  Metric.set t.c_chunks (Ptrace.writer_chunks t.cap_writer)

let start ?chunk_bytes ?meta proc path =
  let writer =
    Ptrace.create_writer ?chunk_bytes ?meta ~device:(Processor.device proc) path
  in
  let reg = Processor.metrics proc in
  (* Resolve with the processor's device labels: every series in its
     registry carries them, and a bare-name lookup would find-or-create a
     parallel unlabeled series. *)
  let labels = Processor.metric_labels proc in
  let t =
    {
      cap_writer = writer;
      cap_proc = proc;
      c_recorded = Metric.counter reg ~labels "pasta_events_recorded";
      c_bytes = Metric.counter reg ~labels "pasta_bytes_written";
      c_chunks = Metric.counter reg ~labels "pasta_trace_chunks";
      cap_open = true;
    }
  in
  Processor.set_sink proc (fun ~time_us op ->
      Ptrace.write_op writer ~time_us op;
      Metric.incr t.c_recorded;
      Metric.set t.c_bytes (Ptrace.writer_bytes writer);
      Metric.set t.c_chunks (Ptrace.writer_chunks writer));
  t

let finish t =
  if t.cap_open then begin
    t.cap_open <- false;
    Processor.clear_sink t.cap_proc;
    Telemetry.begin_span Telemetry.Capture_io "capture.close";
    Ptrace.close_writer t.cap_writer;
    Telemetry.end_span Telemetry.Capture_io;
    sync_stats t
  end

(* Mixed-backend capture: one writer, one sink per backend processor.
   Each sink stamps its backend id on the ops it taps, so the interleaved
   stream lands in one file with per-op attribution; the writer keeps
   chunks single-backend underneath. *)

type multi = {
  m_writer : Ptrace.writer;
  m_taps : (Processor.t * Metric.counter * Metric.counter * Metric.counter) list;
  mutable m_open : bool;
}

let start_multi ?chunk_bytes ?meta procs path =
  (match procs with
  | [] -> invalid_arg "Capture.start_multi: no backends"
  | _ -> ());
  let backends =
    List.map
      (fun (id, proc) ->
        {
          Ptrace.b_id = id;
          b_device = Processor.device proc;
          b_label =
            (match Processor.backend_label proc with Some l -> l | None -> "");
        })
      procs
  in
  let device = Processor.device (snd (List.hd procs)) in
  let writer = Ptrace.create_writer ?chunk_bytes ?meta ~backends ~device path in
  let taps =
    List.map
      (fun (id, proc) ->
        let reg = Processor.metrics proc in
        let labels = Processor.metric_labels proc in
        let c_recorded = Metric.counter reg ~labels "pasta_events_recorded" in
        let c_bytes = Metric.counter reg ~labels "pasta_bytes_written" in
        let c_chunks = Metric.counter reg ~labels "pasta_trace_chunks" in
        Processor.set_sink proc (fun ~time_us op ->
            Ptrace.write_op writer ~time_us ~backend:id op;
            Metric.incr c_recorded;
            Metric.set c_bytes (Ptrace.writer_bytes writer);
            Metric.set c_chunks (Ptrace.writer_chunks writer));
        (proc, c_recorded, c_bytes, c_chunks))
      procs
  in
  { m_writer = writer; m_taps = taps; m_open = true }

let finish_multi m =
  if m.m_open then begin
    m.m_open <- false;
    List.iter (fun (proc, _, _, _) -> Processor.clear_sink proc) m.m_taps;
    Telemetry.begin_span Telemetry.Capture_io "capture.close";
    Ptrace.close_writer m.m_writer;
    Telemetry.end_span Telemetry.Capture_io;
    List.iter
      (fun (_, _, c_bytes, c_chunks) ->
        Metric.set c_bytes (Ptrace.writer_bytes m.m_writer);
        Metric.set c_chunks (Ptrace.writer_chunks m.m_writer))
      m.m_taps
  end

let passthrough () =
  let tool = Tool.default ~fine_grained:Tool.Cpu_sanitizer "capture" in
  {
    tool with
    Tool.on_access_columns = Some (fun _ _ -> ());
    report =
      (fun ppf ->
        Format.fprintf ppf "capture: passthrough recording, no analysis@.");
  }
