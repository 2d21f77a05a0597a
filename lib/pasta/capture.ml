module Metric = Pasta_util.Metric

(* One writer and one sink per processor.  Each sink stamps its
   processor's backend id (its list position) on the ops it taps, so a
   mixed-backend stream lands interleaved in one file with per-op
   attribution; the writer keeps chunks single-backend underneath. *)
type t = {
  writer : Ptrace.writer;
  taps : (Processor.t * Metric.counter * Metric.counter) list;
      (* processor, its bytes-written and chunks counters *)
  mutable is_open : bool;
}

let start ?chunk_bytes ?meta procs path =
  let device =
    match procs with
    | [] -> invalid_arg "Capture.start: no processors"
    | p :: _ -> Processor.device p
  in
  (* One processor is a solo capture: an empty backend table, backend id
     0 on every op.  Two or more get a table row each. *)
  let backends =
    match procs with
    | [ _ ] -> []
    | _ ->
        List.mapi
          (fun id proc ->
            {
              Ptrace.b_id = id;
              b_device = Processor.device proc;
              b_label = Option.value ~default:"" (Processor.backend_label proc);
            })
          procs
  in
  let writer = Ptrace.create_writer ?chunk_bytes ?meta ~backends ~device path in
  let taps =
    List.mapi
      (fun backend proc ->
        let reg = Processor.metrics proc in
        (* Resolve with the processor's labels: every series in its
           registry carries them, and a bare-name lookup would
           find-or-create a parallel unlabeled series. *)
        let labels = Processor.metric_labels proc in
        let c_recorded = Metric.counter reg ~labels "pasta_events_recorded" in
        let c_bytes = Metric.counter reg ~labels "pasta_bytes_written" in
        let c_chunks = Metric.counter reg ~labels "pasta_trace_chunks" in
        Processor.set_sink proc (fun ~time_us op ->
            Ptrace.write_op writer ~time_us ~backend op;
            Metric.incr c_recorded;
            Metric.set c_bytes (Ptrace.writer_bytes writer);
            Metric.set c_chunks (Ptrace.writer_chunks writer));
        (proc, c_bytes, c_chunks))
      procs
  in
  { writer; taps; is_open = true }

let finish t =
  if t.is_open then begin
    t.is_open <- false;
    List.iter (fun (proc, _, _) -> Processor.clear_sink proc) t.taps;
    Telemetry.begin_span Telemetry.Capture_io "capture.close";
    Ptrace.close_writer t.writer;
    Telemetry.end_span Telemetry.Capture_io;
    List.iter
      (fun (_, c_bytes, c_chunks) ->
        Metric.set c_bytes (Ptrace.writer_bytes t.writer);
        Metric.set c_chunks (Ptrace.writer_chunks t.writer))
      t.taps
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
