(* Measurement side of the repo benchmark: runs one BERT-inference
   profiling workload through the library's public entry points and
   prints every op's timings, counters and output check as one JSON object
   on its last line.  run.py spawns it, aggregates the samples and prints
   the benchmark's result line; see README.md for the workloads and the
   metrics.

     pbench.exe WORKLOAD --seed N --mode cold|measure|trace --seconds S --workdir DIR

   [cold] runs a single op in this fresh process and reports the wall time
   from process start to the op's last rendered report, then runs the
   calibration loop once.  [measure] runs one unmeasured warm-up op, then
   ops until [S] seconds have passed, each preceded by the calibration
   loop.  [trace] does the same, alternating untraced ops and ops at
   ACCEL_PROF_TELEMETRY=full with an attribution window per op. *)

let process_start = Unix.gettimeofday ()
let now = Unix.gettimeofday

type workload = {
  name : string;
  tool_key : string;  (** registry name *)
  sample_cap : int;
  roundtrip : bool;  (** record to a .ptrace, then replay it strictly *)
  pinned_md5 : string;  (** report digest; the reports do not depend on the seed *)
}

let workloads =
  [
    {
      name = "bert_hotness_fine";
      tool_key = "hotness_fine";
      sample_cap = 16384;
      roundtrip = false;
      pinned_md5 = "7328ea47fac69bb32fe4052f44e3f369";
    };
    {
      name = "bert_nvbit_records";
      tool_key = "memory_charact_nvbit_cpu";
      sample_cap = 2048;
      roundtrip = false;
      pinned_md5 = "618af2feefb2156155e849f0fcf5ab71";
    };
    {
      name = "bert_trace_roundtrip";
      tool_key = "memory_charact_cs_cpu";
      sample_cap = 16384;
      roundtrip = true;
      pinned_md5 = "5148c378515ae3ed43dd6d3888055bf2";
    };
  ]

(* --- JSON output ---------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      let line = input_line ic in
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
      | Some kb -> float_of_int kb /. 1024.0
      | None -> go ()
    in
    go ()
  with End_of_file | Sys_error _ -> 0.0

(* --- One op --------------------------------------------------------- *)

type op = {
  traced : bool;
  failure : string option;  (** why the op failed its checks *)
  md5 : string;
  m : (string * float) list;  (** timings in seconds, counters *)
}

let tool_of key =
  match Pasta.Registry.find key with
  | Some mk -> mk ()
  | None -> failwith ("unknown tool " ^ key)

let sum_counter (reg : Pasta_util.Metric.t) name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc + v else acc)
    0
    (Pasta_util.Metric.counter_samples reg)

(* Attribution rows carry display labels; the layer names are the
   telemetry categories.  Every "tool:<name>" row folds into [tool]. *)
let layer_of_label label =
  match label with
  | "simulate + workload" -> Some "simulate"
  | "handler (vendor adapt)" -> Some "handler"
  | "processor (dispatch)" -> Some "processor"
  | "ring buffer" -> Some "ring_buffer"
  | "devagg (parallel agg)" -> Some "devagg"
  | "capture I/O" -> Some "capture"
  | "replay I/O" -> Some "replay"
  | l when String.length l > 5 && String.sub l 0 5 = "tool:" -> Some "tool"
  | _ -> None

let layers = [ "simulate"; "handler"; "processor"; "ring_buffer"; "devagg"; "capture"; "replay"; "tool" ]

(* Per-layer self time, span count and GC words of the current window,
   plus the window total and the rows' sum (which must agree). *)
let attribution_metrics () =
  let a = Pasta.Telemetry.attribution () in
  let acc = Hashtbl.create 16 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let sum = ref 0.0 in
  List.iter
    (fun (r : Pasta.Telemetry.row) ->
      sum := !sum +. r.row_self_us;
      match layer_of_label r.row_label with
      | Some l ->
          add (l ^ ".self_s") (r.row_self_us /. 1e6);
          add (l ^ ".spans") (float_of_int r.row_count);
          add (l ^ ".minor_kw") (r.row_minor_words /. 1000.0);
          add (l ^ ".major_kw") (r.row_major_words /. 1000.0)
      | None -> ())
    a.at_rows;
  let per_layer =
    List.concat_map
      (fun l ->
        List.map
          (fun f ->
            let k = l ^ "." ^ f in
            (k, Option.value ~default:0.0 (Hashtbl.find_opt acc k)))
          [ "self_s"; "spans"; "minor_kw"; "major_kw" ])
      layers
  in
  let total = a.at_total_us in
  let balanced = Float.abs (!sum -. total) <= 1.0 +. (1e-9 *. total) in
  (per_layer @ [ ("attr.total_s", total /. 1e6); ("attr.rows_sum_s", !sum /. 1e6) ], balanced)

let with_telemetry traced f =
  Pasta.Config.set "ACCEL_PROF_TELEMETRY" (if traced then "full" else "basic");
  Pasta.Telemetry.refresh_level ();
  if traced then Pasta.Telemetry.reset ();
  f ()

let run_op ~w ~seed ~workdir ~traced =
  with_telemetry traced @@ fun () ->
  let device = Gpusim.Device.create ~seed Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let devagg_records = ref 0 in
  let base = tool_of w.tool_key in
  let tool =
    {
      base with
      Pasta.Tool.on_device_summary =
        (fun info s ->
          devagg_records := !devagg_records + s.Pasta.Devagg.sampled_records;
          base.Pasta.Tool.on_device_summary info s);
    }
  in
  let capture =
    if w.roundtrip then
      Some (Filename.concat workdir (Printf.sprintf "%s-%d.ptrace" w.name (Unix.getpid ())))
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) capture;
      Dlfw.Ctx.destroy ctx)
  @@ fun () ->
  let t0 = now () in
  let session =
    Pasta.Session.attach ~sample_cap:w.sample_cap ?capture ~capture_meta:w.tool_key ~tool device
  in
  let t1 = now () in
  let model = Dlfw.Runner.build ctx "BERT" in
  let t2 = now () in
  Dlfw.Runner.run ctx model ~mode:Dlfw.Runner.Inference ~iters:1;
  let t3 = now () in
  let result = Pasta.Session.detach session in
  let t4 = now () in
  let report = Format.asprintf "%t" result.report in
  let t5 = now () in
  let h = result.health in
  let hits = sum_counter result.metrics "pasta_objmap_memo_hits" in
  let misses = sum_counter result.metrics "pasta_objmap_memo_misses" in
  let live =
    [
      ("dlfw.build_s", t2 -. t1);
      ("dlfw.run_s", t3 -. t2);
      ("session.attach_s", t1 -. t0);
      ("session.detach_s", t4 -. t3);
      ("session.kernels", float_of_int result.kernels);
      ("processor.events_seen", float_of_int result.events_seen);
      ("processor.events_dispatched", float_of_int result.events_dispatched);
      ("processor.batches_delivered", float_of_int h.batches_delivered);
      ("ring.records_dropped", float_of_int h.records_dropped);
      ("ring.buffered_peak", float_of_int h.records_buffered_peak);
      ( "objmap.memo_hit_ratio",
        if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
      ("devagg.records", float_of_int !devagg_records);
      ("domains", float_of_int h.domains);
    ]
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if h.records_dropped > 0 then fail "%d records dropped" h.records_dropped;
  let md5 = Digest.to_hex (Digest.string report) in
  if w.pinned_md5 <> md5 then fail "report md5 %s, pinned %s" md5 w.pinned_md5;
  let rt =
    match capture with
    | None -> [ ("profile_s", t5 -. t0); ("op_s", t5 -. t0); ("tool.report_s", t5 -. t4) ]
    | Some path ->
        let bytes = (Unix.stat path).Unix.st_size in
        let t6 = now () in
        let o = Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool:(tool_of w.tool_key) path in
        let t7 = now () in
        let replayed = Format.asprintf "%t" o.report in
        let t8 = now () in
        if not (String.equal replayed report) then fail "replay report differs from its record run";
        [
          ("record_s", t5 -. t0);
          ("replay_s", t8 -. t6);
          ("op_s", t8 -. t0);
          ("trace_bytes", float_of_int bytes);
          ("tool.report_s", t5 -. t4 +. (t8 -. t7));
          ("replay.drive_s", t7 -. t6);
          ("trace.ops", float_of_int h.events_recorded);
          ("trace.chunks", float_of_int h.chunks);
          ("replay.ops", float_of_int o.ops_replayed);
        ]
  in
  let attr =
    if not traced then []
    else begin
      let per_layer, balanced = attribution_metrics () in
      if not balanced then fail "attribution rows do not sum to the window total";
      let devagg_s = List.assoc "devagg.self_s" per_layer in
      let rate = if devagg_s > 0.0 then float_of_int !devagg_records /. devagg_s else 0.0 in
      let decode =
        match capture with
        | None -> []
        | Some path ->
            (* A decode-only pass over the same file: the codec's share of
               replay_s, with nothing downstream of the reader. *)
            let records = ref 0 in
            let t0 = now () in
            let (_ : Pasta.Ptrace.header * Pasta.Ptrace.read_stats) =
              Pasta.Ptrace.read_file ~mode:Pasta.Ptrace.Strict path ~f:(fun ~time_us:_ op ->
                  records := !records + Pasta.Ptrace.op_records op)
            in
            let decode_s = now () -. t0 in
            let bytes = List.assoc "trace_bytes" rt in
            [
              ("ptrace.decode_s", decode_s);
              ( "trace.bytes_per_record",
                if !records = 0 then 0.0 else bytes /. float_of_int !records );
            ]
      in
      (("devagg.records_per_s", rate) :: per_layer) @ decode
    end
  in
  {
    traced;
    failure = (match !failures with [] -> None | l -> Some (String.concat "; " (List.rev l)));
    md5;
    m = live @ rt @ attr;
  }

(* A fixed allocation- and memory-bound loop that calls no library code.
   On a shared host, contention slows every instruction of the process
   for minutes at a time.  run.py divides op times by this loop's time,
   measured in the same process, which cancels much of that drift. *)
let calib_arr =
  (* Off the OCaml heap, and only touched once calibration starts, so it
     moves neither GC pacing nor a cold process's peak RSS. *)
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22) in
     Bigarray.Array1.fill a 0;
     a)

let calib () =
  let arr = Lazy.force calib_arr in
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  let x = ref 12345 in
  for i = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 0x3ffff) (string_of_int i)
  done;
  for _ = 1 to 2_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land ((1 lsl 22) - 1) in
    Bigarray.Array1.unsafe_set arr j (Bigarray.Array1.unsafe_get arr j + 1)
  done;
  ignore (Sys.opaque_identity h);
  now () -. t0

let safe_op ~w ~seed ~workdir ~traced =
  try run_op ~w ~seed ~workdir ~traced
  with e ->
    { traced; failure = Some ("exception: " ^ Printexc.to_string e); md5 = ""; m = [] }

(* --- Output --------------------------------------------------------- *)

let op_json o =
  json_obj
    [
      ("traced", string_of_bool o.traced);
      ("failure", match o.failure with None -> "null" | Some s -> json_string s);
      ("md5", json_string o.md5);
      ("m", json_obj (List.map (fun (k, v) -> (k, json_float v)) o.m));
    ]

let context ~seed =
  let knobs = Pasta.Config.snapshot () in
  [
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("domains_knob", string_of_int (Pasta.Config.domains ()));
    ("ocaml_version", json_string Sys.ocaml_version);
    ("device_seed", Int64.to_string seed);
    ("knobs", json_obj (List.map (fun (k, v) -> (k, json_string v)) knobs));
  ]

let () =
  let workload = ref "" and seed = ref 0 and mode = ref "measure" in
  let seconds = ref 10.0 and workdir = ref Filename.current_dir_name in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N device seed offset");
      ("--mode", Arg.Set_string mode, "cold|measure|trace");
      ("--seconds", Arg.Set_float seconds, "S measured wall time");
      ("--workdir", Arg.Set_string workdir, "DIR where roundtrip traces are written");
    ]
    (fun s -> workload := s)
    "pbench.exe WORKLOAD [options]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("pbench: unknown workload " ^ !workload);
        exit 2
  in
  Pasta_tools.Tools.register_all ();
  (* The library's default device seed, offset by the workload seed. *)
  let seed = Int64.add 0x9A57AL (Int64.of_int !seed) in
  let op traced = safe_op ~w ~seed ~workdir:!workdir ~traced in
  let ops =
    match !mode with
    | "cold" ->
        let o = op false in
        let setup = now () -. process_start and rss = peak_rss_mb () in
        [ { o with m = ("setup_s", setup) :: ("peak_rss_mb", rss) :: ("calib_s", calib ()) :: o.m } ]
    | ("measure" | "trace") as mode ->
        let op traced =
          let c = calib () in
          let o = op traced in
          { o with m = ("calib_s", c) :: o.m }
        in
        let warm = op false in
        let until = now () +. !seconds in
        (* A traced run alternates untraced and traced ops, so a drift in
           machine speed lands on both kinds alike. *)
        let traced i = mode = "trace" && i land 1 = 1 in
        let rec loop i acc =
          let acc = op (traced i) :: acc in
          if now () < until || not (List.exists (fun o -> o.traced) acc || mode = "measure")
          then loop (i + 1) acc
          else List.rev acc
        in
        warm :: loop 0 []
    | m ->
        prerr_endline ("pbench: unknown mode " ^ m);
        exit 2
  in
  print_endline
    (json_obj
       [
         ("workload", json_string w.name);
         ("context", json_obj (context ~seed));
         ("ops", "[" ^ String.concat ", " (List.map op_json ops) ^ "]");
       ])
