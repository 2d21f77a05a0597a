let default_mode = function
  | Some m -> m
  | None -> if Config.trace_strict () then Ptrace.Strict else Ptrace.Tolerant

(* Chunk decoding parallelizes over the same process-wide pool a live
   Session would install; decoded ops are still applied in recorded
   order, so every result is identical to a serial read. *)
let decode_pool () =
  let dsize = Config.domains () in
  if dsize > 1 then Some (Pasta_util.Domain_pool.global ~size:dsize) else None

module W = Gpusim.Warp

let apply proc pieces ~time_us (op : Processor.sink_op) =
  match op with
  | Processor.Sk_event (Event.Annotation { label; phase = `Start }) ->
      Processor.annot_start proc ~time_us label
  | Processor.Sk_event (Event.Annotation { label; phase = `End }) ->
      Processor.annot_end proc ~time_us label
  | Processor.Sk_event (Event.Device_summary { kernel; summary }) ->
      (* Recorded aggregate: re-drive it through the structured callback
         instead of [submit] so the tool sees the same
         [on_device_summary] the live run saw. *)
      Processor.submit_device_summary proc ~time_us kernel summary
  | Processor.Sk_event payload -> Processor.submit proc ~time_us payload
  | Processor.Sk_batch (_, b) ->
      (* A whole-batch piece of the run [read_into] hands over at once. *)
      W.add_piece pieces b ~pos:0 ~len:(W.batch_len b);
      W.stamp_pieces pieces time_us
  | Processor.Sk_region (k, r) ->
      Processor.submit_region proc k ~base:r.Event.base ~extent:r.Event.extent
        ~accesses:r.Event.accesses ~written:r.Event.written
  | Processor.Sk_flush_summary k -> Processor.flush_kernel_summary proc ~time_us k
  | Processor.Sk_flush_parallel k ->
      (* The aggregate this flush produced is the next recorded
         [Device_summary] op: drop the buffered batches instead of paying
         the aggregation a second time. *)
      Processor.flush_parallel_drop proc ~time_us k
  | Processor.Sk_profile (k, p) -> Processor.submit_profile proc ~time_us k p
  | Processor.Sk_rate { sr_rate; sr_grid_id } ->
      (* Re-note the recorded rate schedule: downstream summaries regain
         their estimate stamps, and re-recording a replay reproduces the
         same [Sk_rate] stream. *)
      Processor.note_rate proc ~time_us ~grid_id:sr_grid_id sr_rate

(* Read [path] and re-drive its ops in recorded order, each into the
   processor [route] picks for its backend id ([None]: an id missing from
   the table).  Each maximal run of consecutive batch ops of one kernel on
   one processor becomes one hand-off, as a record channel delivered them
   live: one table whose pieces are the ops' batches, whole, each stamped
   with its recorded time.  Any other op, and the end of the read, hands
   the pending run over first.
   The whole read is replay I/O; time spent re-driving ops through the
   processor nests into the dispatch/ring/devagg spans and is charged to
   those layers, leaving decode + disk time on the replay row.  A
   [Ptrace.Corrupt] in strict mode must still pop the span, after the ops
   read before it reach their processor. *)
let read_into ~mode path procs ~route =
  let last_us = ref 0.0 and run = ref None and pieces = W.pieces () in
  let flush () =
    match !run with
    | None -> ()
    | Some (proc, info) ->
        run := None;
        W.hand_off pieces (Processor.submit_pieces proc info)
  in
  (* Each op first mirrors the recorded timeline where a live session
     mirrors the device clock, so exported telemetry spans carry sim
     stamps. *)
  let feed proc ~time_us (op : Processor.sink_op) =
    (match (op, !run) with
    | Processor.Sk_batch (k, _), Some (p, info) when p == proc && (k == info || k = info) -> ()
    | Processor.Sk_batch (k, _), _ ->
        flush ();
        run := Some (proc, k)
    | _ -> flush ());
    Telemetry.note_sim_us time_us;
    apply proc pieces ~time_us op
  in
  Telemetry.begin_span Telemetry.Replay_io "replay.read";
  match
    Ptrace.read_file_ext ~mode ?pool:(decode_pool ()) path ~f:(fun ~time_us ~backend op ->
        match route backend with
        | None ->
            (* an id missing from the table is corruption; strict readers
               refuse it, tolerant ones drop the op *)
            if mode = Ptrace.Strict then
              raise (Ptrace.Corrupt (Printf.sprintf "unknown backend id %d" backend))
        | Some (proc, c_replayed) ->
            if time_us > !last_us then last_us := time_us;
            feed proc ~time_us op;
            Pasta_util.Metric.incr c_replayed)
  with
  | header, rstats ->
      flush ();
      List.iter Processor.flush_records procs;
      Telemetry.end_span Telemetry.Replay_io;
      (header, rstats, !last_us)
  | exception e ->
      flush ();
      Telemetry.end_span Telemetry.Replay_io;
      raise e

let safe_report tool ppf =
  try tool.Tool.report ppf
  with exn ->
    Format.fprintf ppf "tool %s: report failed (%s)@." tool.Tool.name
      (Printexc.to_string exn)

type outcome = {
  header : Ptrace.header;
  ops_replayed : int;
  chunks : int;
  chunks_skipped : int;
  elapsed_us : float;
  backends : (Ptrace.backend_entry * Processor.t * (Format.formatter -> unit)) list;
  report : Format.formatter -> unit;
}

(* One processor (and tool instance) per header backend-table entry, ops
   routed to their backend's processor by the per-op backend-id column,
   in recorded order.  A solo trace has an empty table: it replays through
   one unlabelled backend-0 processor.  [capture] taps the processors as a
   live session's capture would, so each op lands in the new trace as the
   processor re-drove it. *)
let run_multi ?mode ?range ?capture ~tool path =
  let hdr = Ptrace.read_header_of_file path in
  let entries =
    match hdr.Ptrace.h_backends with
    | [] -> [ { Ptrace.b_id = 0; b_device = hdr.Ptrace.h_device; b_label = "" } ]
    | bs -> bs
  in
  (* Match the live pipeline: kernel-end aggregation runs on the same
     process-wide domain pool a Session would install.  Results are
     identical for every pool size, so this only affects wall time. *)
  let pool = decode_pool () in
  let backends =
    List.map
      (fun (b : Ptrace.backend_entry) ->
        let label = if b.Ptrace.b_label = "" then None else Some b.Ptrace.b_label in
        let proc = Processor.create ?range ?label ~device:b.Ptrace.b_device () in
        let tl = tool b in
        Processor.set_tool proc tl;
        Option.iter (Processor.set_pool proc) pool;
        (* Labels must match the processor's series or these lookups
           would find-or-create parallel unlabeled ones. *)
        let counter name =
          Pasta_util.Metric.counter (Processor.metrics proc)
            ~labels:(Processor.metric_labels proc) name
        in
        let replayed = counter "pasta_replay_events" in
        let chunks = counter "pasta_trace_chunks" in
        let skipped = counter "pasta_trace_chunks_skipped" in
        (b, proc, tl, (replayed, chunks, skipped)))
      entries
  in
  let routes =
    List.map
      (fun ((b : Ptrace.backend_entry), proc, _, (replayed, _, _)) ->
        (b.Ptrace.b_id, Some (proc, replayed)))
      backends
  in
  let procs = List.map (fun (_, proc, _, _) -> proc) backends in
  let recording = Option.map (Capture.start ~meta:hdr.Ptrace.h_meta procs) capture in
  let header, rstats, last_us =
    Fun.protect
      ~finally:(fun () -> Option.iter Capture.finish recording)
      (fun () ->
        read_into ~mode:(default_mode mode) path procs
          ~route:(fun id -> try List.assoc id routes with Not_found -> None))
  in
  (* Every backend's health reports the file's chunk accounting. *)
  List.iter
    (fun (_, _, _, (_, chunks, skipped)) ->
      Pasta_util.Metric.set chunks rstats.Ptrace.r_chunks;
      Pasta_util.Metric.set skipped rstats.Ptrace.r_chunks_skipped)
    backends;
  let backends = List.map (fun (b, proc, tl, _) -> (b, proc, safe_report tl)) backends in
  (* The count rule: one backend reports as a solo run; several report
     each under its label (its id when the table has none). *)
  let report ppf =
    match backends with
    | [ (_, _, r) ] -> r ppf
    | _ ->
        List.iter
          (fun ((b : Ptrace.backend_entry), _, r) ->
            Format.fprintf ppf "=== backend %s ===@."
              (if b.Ptrace.b_label = "" then string_of_int b.Ptrace.b_id
               else b.Ptrace.b_label);
            r ppf)
          backends
  in
  {
    header;
    ops_replayed = rstats.Ptrace.r_ops;
    chunks = rstats.Ptrace.r_chunks;
    chunks_skipped = rstats.Ptrace.r_chunks_skipped;
    elapsed_us = last_us;
    backends;
    report;
  }

let run ?mode ?range ~tool path =
  if (Ptrace.read_header_of_file path).Ptrace.h_backends <> [] then
    invalid_arg "Replay.run: a mixed-backend trace needs a tool per backend (use run_multi)";
  run_multi ?mode ?range ~tool:(fun _ -> tool) path

(* ------------------------------------------------------------------ *)
(* trace stat                                                          *)
(* ------------------------------------------------------------------ *)

type stat = {
  s_header : Ptrace.header;
  s_bytes : int;
  s_ops : int;
  s_records : int;
  s_chunks : int;
  s_chunks_skipped : int;
  s_first_us : float;
  s_last_us : float;
  s_kinds : (string * int) list;
}

let stat ?mode path =
  let mode = default_mode mode in
  let kinds : (string, int) Hashtbl.t = Hashtbl.create 24 in
  let records = ref 0 in
  let first_us = ref infinity and last_us = ref neg_infinity in
  let header, rstats =
    Ptrace.read_file ~mode ?pool:(decode_pool ()) path ~f:(fun ~time_us op ->
        if time_us < !first_us then first_us := time_us;
        if time_us > !last_us then last_us := time_us;
        records := !records + Ptrace.op_records op;
        let k = Ptrace.op_kind_name op in
        Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
  in
  let kinds =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
    |> List.sort (fun (ka, na) (kb, nb) ->
           match compare nb na with 0 -> compare ka kb | c -> c)
  in
  {
    s_header = header;
    s_bytes =
      (try
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> in_channel_length ic)
       with Sys_error _ -> 0);
    s_ops = rstats.Ptrace.r_ops;
    s_records = !records;
    s_chunks = rstats.Ptrace.r_chunks;
    s_chunks_skipped = rstats.Ptrace.r_chunks_skipped;
    s_first_us = (if !first_us = infinity then 0.0 else !first_us);
    s_last_us = (if !last_us = neg_infinity then 0.0 else !last_us);
    s_kinds = kinds;
  }

let pp_stat ppf s =
  Format.fprintf ppf "ptrace v%d  device %d%s@." s.s_header.Ptrace.h_version
    s.s_header.Ptrace.h_device
    (if s.s_header.Ptrace.h_meta = "" then ""
     else Printf.sprintf "  meta %S" s.s_header.Ptrace.h_meta);
  Format.fprintf ppf "  bytes            %d@." s.s_bytes;
  Format.fprintf ppf "  ops              %d@." s.s_ops;
  Format.fprintf ppf "  records          %d@." s.s_records;
  Format.fprintf ppf "  chunks           %d (%d skipped)@." s.s_chunks
    s.s_chunks_skipped;
  Format.fprintf ppf "  span             %.1f .. %.1f us@." s.s_first_us
    s.s_last_us;
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  %-16s %d@." k n)
    s.s_kinds

(* ------------------------------------------------------------------ *)
(* trace diff                                                          *)
(* ------------------------------------------------------------------ *)

type divergence =
  | Identical of int  (** op count *)
  | Op_mismatch of { index : int; a : string; b : string }
  | Length_mismatch of { a_ops : int; b_ops : int }

(* Fingerprint every op with a canonical (interning-free) encoding; 16
   bytes per op keeps memory flat even for long traces. *)
let op_digests ?mode path =
  let mode = default_mode mode in
  let buf = Buffer.create 4096 in
  let _, rstats =
    Ptrace.read_file_ext ~mode ?pool:(decode_pool ()) path
      ~f:(fun ~time_us ~backend op ->
        Buffer.add_string buf
          (Digest.string (Ptrace.op_to_string ~time_us ~backend op)))
  in
  (rstats.Ptrace.r_ops, Buffer.contents buf)

let describe_op ?mode path index =
  let mode = default_mode mode in
  let i = ref 0 in
  let found = ref "<missing>" in
  let _ =
    Ptrace.read_file ~mode ?pool:(decode_pool ()) path ~f:(fun ~time_us op ->
        if !i = index then
          found := Printf.sprintf "%s @ %.1fus" (Ptrace.op_kind_name op) time_us;
        incr i)
  in
  !found

let diff ?mode a b =
  let a_ops, da = op_digests ?mode a in
  let b_ops, db = op_digests ?mode b in
  if a_ops = b_ops && da = db then Identical a_ops
  else begin
    let n = min a_ops b_ops in
    let rec first i =
      if i >= n then None
      else if String.sub da (i * 16) 16 <> String.sub db (i * 16) 16 then Some i
      else first (i + 1)
    in
    match first 0 with
    | Some index ->
        Op_mismatch
          { index; a = describe_op ?mode a index; b = describe_op ?mode b index }
    | None -> Length_mismatch { a_ops; b_ops }
  end

let pp_divergence ppf = function
  | Identical n -> Format.fprintf ppf "identical (%d ops)@." n
  | Op_mismatch { index; a; b } ->
      Format.fprintf ppf "first divergence at op %d:@.  a: %s@.  b: %s@." index
        a b
  | Length_mismatch { a_ops; b_ops } ->
      Format.fprintf ppf
        "common prefix identical; lengths differ (a: %d ops, b: %d ops)@."
        a_ops b_ops
