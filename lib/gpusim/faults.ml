type rates = {
  corrupt_access : float;
  drop_event : float;
  duplicate_event : float;
  ecc_per_kernel : float;
  stuck_kernel : float;
}

(* Noticeable but non-catastrophic: a few percent per category. *)
let default_rates =
  {
    corrupt_access = 0.02;
    drop_event = 0.02;
    duplicate_event = 0.01;
    ecc_per_kernel = 0.05;
    stuck_kernel = 0.01;
  }

(* Pushes any realistic kernel past the session watchdog. *)
let stuck_multiplier = 10_000.0

type stats = {
  mutable corrupted_accesses : int;
  mutable dropped_events : int;
  mutable duplicated_events : int;
  mutable ecc_errors : int;
  mutable ecc_addrs : int list;
  mutable stuck_kernels : int;
}

type t = {
  seed : int64;
  rates : rates;
  rng : Pasta_util.Det_rng.t;
  stats : stats;
}

let create ?(rates = default_rates) ~seed () =
  {
    seed;
    rates;
    rng = Pasta_util.Det_rng.create seed;
    stats =
      {
        corrupted_accesses = 0;
        dropped_events = 0;
        duplicated_events = 0;
        ecc_errors = 0;
        ecc_addrs = [];
        stuck_kernels = 0;
      };
  }

let seed t = t.seed
let rates t = t.rates
let stats t = t.stats

let event_fate t =
  (* One draw per decision keeps the stream aligned across runs whatever
     the outcome. *)
  let u = Pasta_util.Det_rng.float t.rng 1.0 in
  if u < t.rates.drop_event then begin
    t.stats.dropped_events <- t.stats.dropped_events + 1;
    `Drop
  end
  else if u < t.rates.drop_event +. t.rates.duplicate_event then begin
    t.stats.duplicated_events <- t.stats.duplicated_events + 1;
    `Duplicate
  end
  else `Deliver

let corrupt_batch ~rates ~seed ~grid_id (b : Warp.batch) =
  if rates.corrupt_access <= 0.0 then 0
  else begin
    (* Purely keyed by (seed, grid, region, chunk): workers corrupt their
       own chunks on any domain without touching shared injector state, and
       the faults land on the same records for every domain count.  The
       salt keeps this stream clear of the generation stream even if the
       fault seed and device seed coincide. *)
    let rng =
      Pasta_util.Det_rng.of_key
        (Int64.logxor seed 0x3C6EF372FE94F82BL)
        [| grid_id; b.Warp.b_region; b.Warp.b_chunk |]
    in
    (* A descriptor's [cols] are a fresh copy, so corrupting them would
       silently corrupt nothing. *)
    (match b.Warp.b_shape with
    | Warp.Descriptor _ ->
        invalid_arg "Faults.corrupt_batch: a descriptor has no columns to corrupt"
    | Warp.Dense _ -> ());
    let c = Warp.cols b in
    let corrupted = ref 0 in
    for i = 0 to b.Warp.b_len - 1 do
      if Pasta_util.Det_rng.prob rng rates.corrupt_access then begin
        incr corrupted;
        match Pasta_util.Det_rng.int rng 3 with
        | 0 ->
            let bit = Pasta_util.Det_rng.int rng 40 in
            c.Warp.addrs.{i} <- c.Warp.addrs.{i} lxor (1 lsl bit)
        | 1 -> c.Warp.sizes.{i} <- 1 lsl Pasta_util.Det_rng.int rng 12
        | _ -> c.Warp.writes.{i} <- (if c.Warp.writes.{i} = 0 then 1 else 0)
      end
    done;
    !corrupted
  end

let note_corrupted t n =
  t.stats.corrupted_accesses <- t.stats.corrupted_accesses + n

let kernel_duration_us t duration =
  if Pasta_util.Det_rng.prob t.rng t.rates.stuck_kernel then begin
    t.stats.stuck_kernels <- t.stats.stuck_kernels + 1;
    duration *. stuck_multiplier
  end
  else duration

let ecc_check t mem =
  if not (Pasta_util.Det_rng.prob t.rng t.rates.ecc_per_kernel) then None
  else
    match Device_mem.live mem with
    | [] -> None
    | allocs ->
        let a = List.nth allocs (Pasta_util.Det_rng.int t.rng (List.length allocs)) in
        let addr = a.Device_mem.base + Pasta_util.Det_rng.int t.rng a.Device_mem.bytes in
        t.stats.ecc_errors <- t.stats.ecc_errors + 1;
        t.stats.ecc_addrs <- addr :: t.stats.ecc_addrs;
        Some addr

(* --- Fleet-scale failure modes ------------------------------------ *)

(* Unlike the single-device injector above, fleet decisions carry no
   mutable state at all: every fate is a pure function of
   (seed, device, attempt) or (seed, merge node, child), so a fleet run
   reproduces the same crashes, stragglers and corrupted summaries for
   any domain count — the property the tree reduction's byte-determinism
   rests on. *)

type fleet_rates = {
  crash : float;
  straggle : float;
  straggle_factor : float;
  corrupt_summary : float;
}

let default_fleet_rates =
  { crash = 0.06; straggle = 0.08; straggle_factor = 8.0; corrupt_summary = 0.02 }

(* Salt separating the fleet streams from the per-device generation and
   batch-corruption streams even when seeds coincide. *)
let fleet_salt = 0x9E3779B97F4A7C15L

type device_fate = Healthy | Crash of int | Straggle of float

let device_fate ~rates ~seed ~device ~attempt ~kernels =
  let rng =
    Pasta_util.Det_rng.of_key (Int64.logxor seed fleet_salt) [| device; attempt |]
  in
  let u = Pasta_util.Det_rng.float rng 1.0 in
  if u < rates.crash then
    (* Crash mid-kernel: pick the launch ordinal the device dies inside. *)
    Crash (Pasta_util.Det_rng.int rng (max 1 kernels))
  else if u < rates.crash +. rates.straggle then
    (* Straggler slowdown: at least 2x, centred on [straggle_factor]. *)
    Straggle
      (Float.max 2.0
         (rates.straggle_factor
         *. (0.5 +. Pasta_util.Det_rng.float rng 1.0)))
  else Healthy

let corrupt_summary_at ~rates ~seed ~node ~child =
  if rates.corrupt_summary <= 0.0 then false
  else
    let rng =
      Pasta_util.Det_rng.of_key
        (Int64.logxor seed (Int64.lognot fleet_salt))
        [| node; child |]
    in
    Pasta_util.Det_rng.prob rng rates.corrupt_summary

let pp_stats ppf s =
  Format.fprintf ppf
    "corrupted accesses %d, dropped events %d, duplicated events %d, ECC errors %d, \
     stuck kernels %d"
    s.corrupted_accesses s.dropped_events s.duplicated_events s.ecc_errors
    s.stuck_kernels
