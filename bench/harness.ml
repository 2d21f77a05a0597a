(* The bench harness: one workload runner, one [measure], one artifact
   writer and one [gate], shared by every wall-clock experiment.

   An experiment hands [measure] its configurations, each a named thunk
   that returns one timed [sample].  [measure] runs every configuration
   once unmeasured (page cache, branch predictors, pool creation), then
   [reps] rounds that each run every configuration once on a compacted
   heap.  Each round starts one configuration later than the one before:
   slow machine drift lands evenly on every configuration, and so does the
   cost of a slot late in the round, where the heap and allocator state
   have degraded slightly.  The experiment then writes
   BENCH_<experiment>.json with [write_artifact] and checks its claims
   with [gate]; a failed gate prints a FAIL line, and the bench exits 1
   once, after every requested experiment has run. *)

module Runner = Dlfw.Runner
module Njson = Pasta_util.Njson

(* All experiment output goes through [ppf], which forwards to the current
   target — stdout by default, a per-experiment results file under
   [--out DIR]. *)
let out_ppf = ref Format.std_formatter

let ppf =
  Format.make_formatter
    (fun s pos len ->
      let out = Format.pp_get_formatter_out_functions !out_ppf () in
      out.Format.out_string s pos len)
    (fun () -> Format.pp_print_flush !out_ppf ())

let section title =
  Format.fprintf ppf "@.=== %s ===@.@." title

(* --- runs ------------------------------------------------------------ *)

type 'a sample = {
  wall_s : float;
  attribution : Pasta.Telemetry.attribution;  (* self time of exactly this run *)
  value : 'a;
}

(* Time [f] in a fresh telemetry window, so that the attribution read at
   its end covers [f] and nothing else. *)
let timed f =
  Pasta.Telemetry.reset ();
  let t0 = Unix.gettimeofday () in
  let value = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  { wall_s; attribution = Pasta.Telemetry.attribution (); value }

(* Run a workload on a fresh device and ctx.  The timed window is attach
   -> model build and run -> detach; the ctx is destroyed after it.
   [iters] defaults to the model's evaluation count. *)
let fresh_run ?(arch = Gpusim.Arch.a100) ?iters ?sample_cap ?sample_rate ?overhead_budget
    ?capture ~tool abbr mode =
  let device = Gpusim.Device.create arch in
  let ctx = Dlfw.Ctx.create device in
  let iters = Option.value iters ~default:(Runner.default_iters ~abbr ~mode) in
  let run =
    timed (fun () ->
        let session =
          Pasta.Session.attach ?sample_cap ?sample_rate ?overhead_budget ?capture ~tool device
        in
        Runner.run ctx (Runner.build ctx abbr) ~mode ~iters;
        Pasta.Session.detach session)
  in
  Dlfw.Ctx.destroy ctx;
  run

let report_text run = Format.asprintf "%t" run.value.Pasta.Session.report

(* --- gates ----------------------------------------------------------- *)

let failed = ref false

(* A claim that does not hold prints "<experiment>: FAIL - <why>" and
   fails the bench process once every requested experiment has run. *)
let gate experiment ok fmt =
  Printf.ksprintf
    (fun why ->
      if not ok then begin
        failed := true;
        Format.pp_print_flush ppf ();
        Printf.eprintf "%s: FAIL - %s\n%!" experiment why
      end)
    fmt

(* --- measure --------------------------------------------------------- *)

type 'a stats = {
  name : string;
  walls : float array;  (* one per round, in round order *)
  values : 'a array;  (* likewise *)
  median_s : float;
  min_s : float;
  digest : string;  (* md5 of the last round's output *)
  attribution : Pasta.Telemetry.attribution;  (* of the last round *)
}

let last s = s.values.(Array.length s.values - 1)

(* [output] renders a run's value as the tool output to digest.  Every
   round must render the same output, except in a configuration that
   [checked] rejects: one whose run wall-clock feedback governs. *)
let measure ?(checked = fun _ -> true) experiment ~reps ~output configs =
  let runs = Array.of_list (List.map snd configs) in
  let n = Array.length runs in
  Array.iter (fun run -> ignore (run ())) runs;
  let samples = Array.make_matrix n reps None in
  for round = 0 to reps - 1 do
    for slot = 0 to n - 1 do
      let i = (slot + round) mod n in
      Gc.compact ();
      samples.(i).(round) <- Some (runs.(i) ())
    done
  done;
  List.mapi
    (fun i (name, _) ->
      let row = Array.map Option.get samples.(i) in
      let outputs = Array.map (fun s -> output s.value) row in
      gate experiment
        ((not (checked name)) || Array.for_all (String.equal outputs.(0)) outputs)
        "%s: output diverges across repetitions" name;
      let walls = Array.map (fun s -> s.wall_s) row in
      let w = Pasta_util.Stats.summarize walls in
      {
        name;
        walls;
        values = Array.map (fun s -> s.value) row;
        median_s = w.Pasta_util.Stats.median;
        min_s = w.Pasta_util.Stats.min;
        digest = Digest.to_hex (Digest.string outputs.(reps - 1));
        attribution = row.(reps - 1).attribution;
      })
    configs

(* The worst relative gap between a configuration's median and best wall:
   wall-time differences inside it are sampling error. *)
let noise_floor stats =
  List.fold_left (fun acc s -> Float.max acc ((s.median_s -. s.min_s) /. s.median_s)) 0.0 stats

(* One row per configuration: its name, median and min wall, then the
   experiment's own columns. *)
let table extra_header rows =
  let ms x = Printf.sprintf "%.3f" (1000.0 *. x) in
  Pasta_util.Texttab.render ppf
    ~header:("configuration" :: "median (ms)" :: "min (ms)" :: extra_header)
    ~align:(Left :: Right :: Right :: List.map (fun _ -> Pasta_util.Texttab.Right) extra_header)
    (List.map (fun (s, cells) -> s.name :: ms s.median_s :: ms s.min_s :: cells) rows)

(* --- artifacts ------------------------------------------------------- *)

let num digits x =
  let scale = 10.0 ** float_of_int digits in
  Njson.Float (Float.round (x *. scale) /. scale)

(* An artifact's configurations: what every one carries, then the
   experiment's [extra] fields. *)
let configs_json ?(extra = fun _ -> []) stats =
  let layer (r : Pasta.Telemetry.row) =
    Njson.Obj
      [ ("label", Str r.row_label); ("self_us", num 1 r.row_self_us); ("count", Int r.row_count) ]
  in
  let config s =
    Njson.Obj
      ([
         ("config", Njson.Str s.name);
         ("wall_median_s", num 6 s.median_s);
         ("wall_min_s", num 6 s.min_s);
         ("digest", Str s.digest);
         ("layers", List (List.map layer s.attribution.Pasta.Telemetry.at_rows));
       ]
      @ extra s)
  in
  Njson.List (List.map config stats)

(* [write_artifact "BENCH_<experiment>.json" ...]: the header every
   artifact shares, then the experiment's own [fields]. *)
let write_artifact file ~workload ~reps ?noise_floor fields =
  let header =
    [
      ("experiment", Njson.Str (String.sub file 6 (String.length file - 11)));
      ("workload", Str workload);
      ("reps", Int reps);
      ("hardware_parallelism", Int (Domain.recommended_domain_count ()));
      ("noise_floor", Option.fold ~none:Njson.Null ~some:(num 4) noise_floor);
    ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Njson.to_string_pretty (Obj (header @ fields))));
  Format.fprintf ppf "wrote %s@." file
