(* Unit and property tests for Pasta_util. *)

open Pasta_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Det_rng ---- *)

let test_rng_determinism () =
  let a = Det_rng.create 42L and b = Det_rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Det_rng.int64 a) (Det_rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Det_rng.create 1L and b = Det_rng.create 2L in
  check_bool "different seeds diverge" true (Det_rng.int64 a <> Det_rng.int64 b)

let test_rng_of_string_stable () =
  let a = Det_rng.of_string "gpu0" and b = Det_rng.of_string "gpu0" in
  Alcotest.(check int64) "stable" (Det_rng.int64 a) (Det_rng.int64 b)

let test_rng_split_independent () =
  let a = Det_rng.create 7L in
  let b = Det_rng.split a in
  let xa = Det_rng.int64 a and xb = Det_rng.int64 b in
  check_bool "split streams differ" true (xa <> xb)

let test_rng_copy () =
  let a = Det_rng.create 9L in
  ignore (Det_rng.int64 a);
  let b = Det_rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Det_rng.int64 a) (Det_rng.int64 b)

let test_rng_int_invalid () =
  let r = Det_rng.create 1L in
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Det_rng.int: bound must be positive")
    (fun () -> ignore (Det_rng.int r 0))

let test_rng_prob_extremes () =
  let r = Det_rng.create 1L in
  check_bool "p=0 never" false (Det_rng.prob r 0.0);
  check_bool "p=1 always" true (Det_rng.prob r 1.0)

let test_rng_pick_empty () =
  let r = Det_rng.create 1L in
  Alcotest.check_raises "empty array" (Invalid_argument "Det_rng.pick: empty array")
    (fun () -> ignore (Det_rng.pick r [||]))

let test_rng_geometric_p1 () =
  let r = Det_rng.create 1L in
  check_int "p=1 is zero failures" 0 (Det_rng.geometric r 1.0)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Det_rng.int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Det_rng.create seed in
      let v = Det_rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Det_rng.float stays in bounds" ~count:500 QCheck.int64
    (fun seed ->
      let r = Det_rng.create seed in
      let v = Det_rng.float r 3.5 in
      v >= 0.0 && v < 3.5)

let prop_rng_lognormal_positive =
  QCheck.Test.make ~name:"Det_rng.lognormal is positive" ~count:200 QCheck.int64
    (fun seed ->
      let r = Det_rng.create seed in
      Det_rng.lognormal r ~mu:0.0 ~sigma:1.0 > 0.0)

(* ---- Bytesize ---- *)

let test_bytesize_pp () =
  check_string "bytes" "512 B" (Bytesize.to_string 512);
  check_string "kb" "1.00 KB" (Bytesize.to_string 1024);
  check_string "mb" "2.00 MB" (Bytesize.to_string (Bytesize.mib 2));
  check_string "gb" "4.00 GB" (Bytesize.to_string (Bytesize.gib 4))

let test_bytesize_units () =
  check_int "kib" 2048 (Bytesize.kib 2);
  check_int "mib" (1024 * 1024) (Bytesize.mib 1);
  check_float "to_mib" 1.5 (Bytesize.to_mib_f (Bytesize.kib 1536))

let test_align_up_invalid () =
  Alcotest.check_raises "align 0" (Invalid_argument "Bytesize.align_up: align must be positive")
    (fun () -> ignore (Bytesize.align_up 5 ~align:0))

let prop_align_up =
  QCheck.Test.make ~name:"align_up is minimal aligned upper bound" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 4096))
    (fun (n, align) ->
      let a = Bytesize.align_up n ~align in
      a >= n && a mod align = 0 && a - n < align)

(* ---- Stats ---- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_float "mean" 3.0 s.Stats.mean;
  check_float "median" 3.0 s.Stats.median;
  check_int "count" 5 s.Stats.count;
  check_float "total" 15.0 s.Stats.total

let test_stats_percentile_interp () =
  check_float "p50 of [1,2]" 1.5 (Stats.percentile [| 1.0; 2.0 |] 50.0);
  check_float "p0" 1.0 (Stats.percentile [| 2.0; 1.0 |] 0.0);
  check_float "p100" 2.0 (Stats.percentile [| 2.0; 1.0 |] 100.0)

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize [||]))

let test_stats_percentile_range () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 101.0))

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stats_no_mutation () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.summarize xs);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] xs

let prop_stats_ordering =
  QCheck.Test.make ~name:"min <= median <= p90 <= max" ~count:300
    QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.median
      && s.Stats.median <= s.Stats.p90 +. 1e-9
      && s.Stats.p90 <= s.Stats.max +. 1e-9)

(* ---- Histogram ---- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  Histogram.add h "a";
  Histogram.add h "a";
  Histogram.add h ~count:3 "b";
  check_int "count a" 2 (Histogram.count h "a");
  check_int "count b" 3 (Histogram.count h "b");
  check_int "count missing" 0 (Histogram.count h "c");
  check_int "total" 5 (Histogram.total h);
  check_int "distinct" 2 (Histogram.distinct h)

let test_histogram_sorted () =
  let h = Histogram.create () in
  Histogram.add h ~count:1 "low";
  Histogram.add h ~count:5 "high";
  Histogram.add h ~count:5 "also_high";
  (match Histogram.to_sorted h with
  | (k1, 5) :: (k2, 5) :: (k3, 1) :: [] ->
      check_string "ties lexicographic" "also_high" k1;
      check_string "second" "high" k2;
      check_string "third" "low" k3
  | _ -> Alcotest.fail "unexpected sort");
  check_int "top 1" 1 (List.length (Histogram.top h 1))

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a ~count:2 "x";
  Histogram.add b ~count:3 "x";
  Histogram.add b "y";
  let m = Histogram.merge a b in
  check_int "merged x" 5 (Histogram.count m "x");
  check_int "merged y" 1 (Histogram.count m "y");
  check_int "originals intact" 2 (Histogram.count a "x")

(* ---- Timeline ---- *)

let test_timeline_basic () =
  let t = Timeline.create () in
  check_bool "empty" true (Timeline.is_empty t);
  Timeline.record t ~time:0.0 10.0;
  Timeline.record t ~time:1.0 20.0;
  Timeline.record t ~time:2.0 5.0;
  check_int "length" 3 (Timeline.length t);
  check_float "last" 5.0 (Timeline.last_value t);
  check_float "peak" 20.0 (Timeline.peak t);
  check_float "duration" 2.0 (Timeline.duration t)

let test_timeline_backwards () =
  let t = Timeline.create () in
  Timeline.record t ~time:5.0 1.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeline.record: time went backwards") (fun () ->
      Timeline.record t ~time:4.0 1.0)

let test_timeline_bucketize () =
  let t = Timeline.create () in
  Timeline.record t ~time:0.0 1.0;
  Timeline.record t ~time:10.0 2.0;
  let b = Timeline.bucketize t ~buckets:4 in
  check_int "bucket count" 4 (Array.length b);
  check_float "first holds initial" 1.0 b.(0);
  check_float "last holds final" 2.0 b.(3)

let test_timeline_bucketize_instant () =
  let t = Timeline.create () in
  Timeline.record t ~time:1.0 7.0;
  let b = Timeline.bucketize t ~buckets:3 in
  Array.iter (fun v -> check_float "constant" 7.0 v) b

let test_timeline_diff_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Timeline.diff: length mismatch")
    (fun () -> ignore (Timeline.diff [| 1.0 |] [| 1.0; 2.0 |]))

(* ---- Freelist ---- *)

let test_freelist_coalesce () =
  let f = Freelist.singleton ~base:0 ~bytes:100 in
  let f = match Freelist.take_first_fit f ~bytes:100 with Some (0, f) -> f | _ -> Alcotest.fail "take" in
  check_bool "empty after take" true (Freelist.is_empty f);
  (* Re-insert in three pieces out of order; must coalesce to one hole. *)
  let f = Freelist.insert f ~base:50 ~bytes:25 in
  let f = Freelist.insert f ~base:0 ~bytes:50 in
  let f = Freelist.insert f ~base:75 ~bytes:25 in
  Alcotest.(check (list (pair int int))) "coalesced" [ (0, 100) ] (Freelist.holes f)

let test_freelist_overlap () =
  let f = Freelist.singleton ~base:0 ~bytes:10 in
  Alcotest.check_raises "overlap" (Invalid_argument "Freelist.insert: overlapping hole")
    (fun () -> ignore (Freelist.insert f ~base:5 ~bytes:10))

let test_freelist_first_fit () =
  let f = Freelist.singleton ~base:0 ~bytes:10 in
  let f = Freelist.insert f ~base:100 ~bytes:50 in
  (match Freelist.take_first_fit f ~bytes:20 with
  | Some (100, f') ->
      Alcotest.(check (list (pair int int))) "split hole" [ (0, 10); (120, 30) ]
        (Freelist.holes f')
  | _ -> Alcotest.fail "expected fit at 100");
  check_bool "no fit" true (Freelist.take_first_fit f ~bytes:51 = None)

let prop_freelist_total_preserved =
  QCheck.Test.make ~name:"freelist take+insert preserves total bytes" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 64))
    (fun sizes ->
      let f = ref (Freelist.singleton ~base:0 ~bytes:4096) in
      let taken = ref [] in
      List.iter
        (fun sz ->
          match Freelist.take_first_fit !f ~bytes:sz with
          | Some (base, f') ->
              f := f';
              taken := (base, sz) :: !taken
          | None -> ())
        sizes;
      List.iter (fun (base, bytes) -> f := Freelist.insert !f ~base ~bytes) !taken;
      Freelist.total !f = 4096 && Freelist.holes !f = [ (0, 4096) ])

(* ---- Texttab / Heatmap ---- *)

let test_texttab_render () =
  let out =
    Format.asprintf "%t" (fun ppf ->
        Texttab.render ppf ~header:[ "a"; "b" ] ~align:[ Texttab.Left; Texttab.Right ]
          [ [ "x"; "1" ]; [ "longer" ] ])
  in
  check_bool "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  check_bool "pads short rows" true (String.length out > 10)

let test_heatmap_intensity () =
  Alcotest.(check char) "zero" ' ' (Heatmap.intensity_char 0.0);
  Alcotest.(check char) "one" '@' (Heatmap.intensity_char 1.0);
  Alcotest.(check char) "clamped high" '@' (Heatmap.intensity_char 2.0);
  Alcotest.(check char) "clamped low" ' ' (Heatmap.intensity_char (-1.0))

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng of_string stable", `Quick, test_rng_of_string_stable);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng prob extremes", `Quick, test_rng_prob_extremes);
    ("rng pick empty", `Quick, test_rng_pick_empty);
    ("rng geometric p=1", `Quick, test_rng_geometric_p1);
    qtest prop_rng_int_bounds;
    qtest prop_rng_float_bounds;
    qtest prop_rng_lognormal_positive;
    ("bytesize pp", `Quick, test_bytesize_pp);
    ("bytesize units", `Quick, test_bytesize_units);
    ("align_up invalid", `Quick, test_align_up_invalid);
    qtest prop_align_up;
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile interpolation", `Quick, test_stats_percentile_interp);
    ("stats empty", `Quick, test_stats_empty);
    ("stats percentile range", `Quick, test_stats_percentile_range);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats no mutation", `Quick, test_stats_no_mutation);
    qtest prop_stats_ordering;
    ("histogram basic", `Quick, test_histogram_basic);
    ("histogram sorted", `Quick, test_histogram_sorted);
    ("histogram merge", `Quick, test_histogram_merge);
    ("timeline basic", `Quick, test_timeline_basic);
    ("timeline backwards", `Quick, test_timeline_backwards);
    ("timeline bucketize", `Quick, test_timeline_bucketize);
    ("timeline bucketize instant", `Quick, test_timeline_bucketize_instant);
    ("timeline diff mismatch", `Quick, test_timeline_diff_mismatch);
    ("freelist coalesce", `Quick, test_freelist_coalesce);
    ("freelist overlap", `Quick, test_freelist_overlap);
    ("freelist first fit", `Quick, test_freelist_first_fit);
    qtest prop_freelist_total_preserved;
    ("texttab render", `Quick, test_texttab_render);
    ("heatmap intensity", `Quick, test_heatmap_intensity);
  ]
