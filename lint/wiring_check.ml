(* Wiring checker, run as part of the default [dune runtest] via the root
   [wiring-check] alias.  Catches the three easiest ways for coverage to
   rot silently:

   - a test module that exists on disk but was never added to
     [test/test_main.ml] — it would compile, sit in the executable and
     never run;
   - a [BENCH_*.json] artifact named anywhere under [bench/] (a gate, a
     doc string, a comparison) with no [write_artifact "BENCH_*.json"]
     producer left in the bench sources;
   - a dune alias defined in [test/dune] (an env-variant re-run like
     [@faults] or [@fleet]) that is missing from the [runtest] alias deps
     — it would only fire when invoked by hand;
   - a load-bearing alias ([@columnar], [@faults], ...) or benchmark
     artifact deleted outright, an artifact's producer dropping one of its
     pinned fields, or the harness's writer dropping the header and
     per-configuration fields every artifact shares (rep count, noise
     floor, median/min walls, digest, layer rows).

   Usage: wiring_check TEST_DIR BENCH_DIR — prints one line per violation
   and exits 1 if any were found. *)

let violations = ref 0

let complain path what =
  incr violations;
  Printf.eprintf "%s: %s\n" path what

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.extension f = ".ml")
  |> List.sort compare

(* --- every test/test_*.ml is wired into test_main.ml --- *)

let check_test_wiring dir =
  let main = Filename.concat dir "test_main.ml" in
  if not (Sys.file_exists main) then complain main "missing test driver"
  else begin
    let driver = read_file main in
    List.iter
      (fun f ->
        if
          String.length f > 5
          && String.sub f 0 5 = "test_"
          && f <> "test_main.ml"
        then begin
          let modname = String.capitalize_ascii (Filename.chop_extension f) in
          if not (contains driver (modname ^ ".")) then
            complain (Filename.concat dir f)
              (Printf.sprintf "not wired into test_main.ml (no %s.suite)" modname)
        end)
      (ml_files dir)
  end

(* --- every alias defined in test/dune rides the default runtest --- *)

let index_of body from needle =
  let h = String.length body and n = String.length needle in
  let rec go i =
    if i + n > h then None
    else if String.sub body i n = needle then Some i
    else go (i + 1)
  in
  if n = 0 then Some from else go from

(* End of the s-expression opening at [start] (which must point at '('). *)
let sexp_end body start =
  let len = String.length body in
  let depth = ref 0 and i = ref start and stop = ref (-1) in
  while !stop < 0 && !i < len do
    (match body.[!i] with
    | '(' -> incr depth
    | ')' ->
        decr depth;
        if !depth = 0 then stop := !i + 1
    | _ -> ());
    incr i
  done;
  if !stop < 0 then len else !stop

let check_alias_wiring dir =
  let path = Filename.concat dir "dune" in
  if not (Sys.file_exists path) then complain path "missing dune file"
  else begin
    let body = read_file path in
    match index_of body 0 "(name runtest)" with
    | None -> complain path "no (alias (name runtest)) block"
    | Some rp ->
        let deps_start, deps_end =
          match index_of body rp "(deps" with
          | Some d -> (d, sexp_end body d)
          | None -> (rp, rp)
        in
        let deps = String.sub body deps_start (deps_end - deps_start) in
        let is_name_char c =
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'
        in
        let rec scan i =
          match index_of body i "(alias " with
          | None -> ()
          | Some p ->
              let j = ref (p + 7) in
              while !j < String.length body && is_name_char body.[!j] do
                incr j
              done;
              let name = String.sub body (p + 7) (!j - (p + 7)) in
              (* skip the runtest block itself, empty names (the
                 "(alias (name ...))" form) and references inside deps *)
              if
                name <> "" && name <> "runtest"
                && not (p >= deps_start && p < deps_end)
                && not (contains deps (Printf.sprintf "(alias %s)" name))
              then
                complain path
                  (Printf.sprintf "alias %s is defined but not in the runtest deps"
                     name);
              scan !j
        in
        scan 0
  end

(* --- load-bearing aliases and artifacts must exist at all --- *)

(* The generic checks above only catch an alias that exists but fell off
   the runtest deps, or an artifact that is named but never written.  An
   alias or producer deleted outright would pass both, so the suites and
   benchmark gates the acceptance pipeline leans on are pinned here by
   name. *)
let required_aliases =
  [
    "faults"; "trace"; "sampling"; "columnar"; "fleet"; "serve"; "regions";
    "opencl";
  ]

let check_required_aliases dir =
  let path = Filename.concat dir "dune" in
  if Sys.file_exists path then begin
    let body = read_file path in
    List.iter
      (fun name ->
        if not (contains body (Printf.sprintf "(alias %s)" name)) then
          complain path
            (Printf.sprintf "required alias %s is not defined" name))
      required_aliases
  end

(* --- every BENCH_*.json is written by the harness's one writer --- *)

(* A producer is the writer call with the artifact's name as a literal,
   [write_artifact "BENCH_<name>.json" ...], and a pinned field is its key
   literal (["key"]) inside the top-level definition that makes the call.
   The header every artifact shares and the fields every measured
   configuration carries are pinned once, in the file that defines the
   writer. *)
let writer = "write_artifact"

let common_fields =
  [ "experiment"; "workload"; "reps"; "hardware_parallelism"; "noise_floor";
    "wall_median_s"; "wall_min_s"; "digest"; "layers"; "label"; "self_us";
    "count" ]

let required_bench_fields =
  [ ("BENCH_pipeline.json",
     [ "speedup_8_domains_vs_serial"; "deterministic_across_domains" ]);
    ("BENCH_replay.json", [ "trace"; "identical_reports" ]);
    ("BENCH_telemetry.json", [ "basic_overhead"; "gate_ok" ]);
    ("BENCH_sampling.json",
     [ "overhead_frac"; "auto_within_budget"; "auto_top10_matches_exact" ]);
    ("BENCH_fleet.json", [ "dropped_with_faults"; "tree_sublinear" ]);
    ("BENCH_serve.json",
     [ "jobs_per_sec"; "p99_latency_us"; "identical_to_solo"; "fault_containment" ]);
    ("BENCH_regions.json",
     [ "identical_with_regions_off"; "overhead_frac_fine"; "kernels_exact_partition" ]);
    ("BENCH_hetero.json",
     [ "mixed_vs_solo_sum"; "identical_per_backend"; "replay_identical" ]) ]

let quoted field = Printf.sprintf {|"%s"|} field

(* The top-level definition around [pos]: from the last line that opens
   with [let] at or before it to the next one after it. *)
let definition_at body pos =
  let rec back i =
    if i <= 0 then 0
    else if String.sub body i 5 = "\nlet " then i + 1
    else back (i - 1)
  in
  let start = back (min pos (String.length body - 5)) in
  let stop =
    match index_of body (pos + 1) "\nlet " with Some e -> e | None -> String.length body
  in
  String.sub body start (stop - start)

let check_required_bench dir =
  let files = List.map (fun f -> (f, read_file (Filename.concat dir f))) (ml_files dir) in
  (match
     List.find_opt (fun (_, body) -> contains body ("let " ^ writer ^ " ")) files
   with
  | None -> complain dir (Printf.sprintf "no file defines %s" writer)
  | Some (f, body) ->
      List.iter
        (fun field ->
          if not (contains body (quoted field)) then
            complain (Filename.concat dir f)
              (Printf.sprintf "%s no longer writes %s" writer field))
        common_fields);
  List.iter
    (fun (artifact, fields) ->
      let call = Printf.sprintf {|%s "%s"|} writer artifact in
      let at_call (_, body) = Option.map (fun p -> (body, p)) (index_of body 0 call) in
      match List.find_map at_call files with
      | None -> complain dir (Printf.sprintf "no producer writes %s" artifact)
      | Some (body, pos) ->
          let producer = definition_at body pos in
          List.iter
            (fun field ->
              if not (contains producer (quoted field)) then
                complain dir
                  (Printf.sprintf "%s producer no longer emits %s" artifact field))
            fields)
    required_bench_fields

(* --- every BENCH_*.json named under bench/ has a producer --- *)

(* Collect every "BENCH_<name>.json" literal occurring in [body]. *)
let bench_names body =
  let names = ref [] in
  let len = String.length body in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let i = ref 0 in
  while !i < len do
    if !i + 6 <= len && String.sub body !i 6 = "BENCH_" then begin
      let j = ref (!i + 6) in
      while !j < len && is_name_char body.[!j] do
        incr j
      done;
      if !j + 5 <= len && String.sub body !j 5 = ".json" then begin
        let name = String.sub body !i (!j + 5 - !i) in
        if not (List.mem name !names) then names := name :: !names;
        i := !j + 5
      end
      else i := !j
    end
    else incr i
  done;
  List.sort compare !names

let check_bench_producers dir =
  let bodies = List.map (fun f -> (f, read_file (Filename.concat dir f))) (ml_files dir) in
  let all = List.concat_map (fun (_, body) -> bench_names body) bodies in
  List.iter
    (fun name ->
      let produced =
        List.exists
          (fun (_, body) -> contains body (Printf.sprintf {|%s "%s"|} writer name))
          bodies
      in
      if not produced then
        complain dir (Printf.sprintf "%s is named but nothing writes it" name))
    (List.sort_uniq compare all)

let () =
  (match Array.to_list Sys.argv with
  | [ _; test_dir; bench_dir ] ->
      check_test_wiring test_dir;
      check_alias_wiring test_dir;
      check_required_aliases test_dir;
      check_bench_producers bench_dir;
      check_required_bench bench_dir
  | _ ->
      prerr_endline "usage: wiring_check TEST_DIR BENCH_DIR";
      exit 2);
  if !violations > 0 then begin
    Printf.eprintf "wiring_check: %d violation%s\n" !violations
      (if !violations = 1 then "" else "s");
    exit 1
  end
