let block_bytes = 2 * 1024 * 1024

type classification = Persistent_hot | Bursty | Cold

(* Samples (time_us, absolute block, accesses) in arrival order, as three
   flat columns: appending one allocates nothing beyond the columns'
   amortized growth.  The time range is read off the samples when a
   matrix is built. *)
type t = {
  time_buckets : int;
  mutable times : float array;
  mutable blocks : int array;
  mutable counts : float array;
  mutable n : int;
  mutable est_rate_min : float;  (* lowest sampling rate behind any summary *)
  mutable est_records : int;  (* kept records behind estimated summaries *)
}

let create ?(time_buckets = 48) () =
  if time_buckets <= 0 then invalid_arg "Hotness.create: time_buckets must be positive";
  {
    time_buckets;
    times = [||];
    blocks = [||];
    counts = [||];
    n = 0;
    est_rate_min = 1.0;
    est_records = 0;
  }

let grow t =
  let cap = Int.max 64 (2 * t.n) in
  let extend a zero =
    let a' = Array.make cap zero in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  t.times <- extend t.times 0.0;
  t.blocks <- extend t.blocks 0;
  t.counts <- extend t.counts 0.0

let[@inline] push t time blk count =
  if t.n = Array.length t.blocks then grow t;
  t.times.(t.n) <- time;
  t.blocks.(t.n) <- blk;
  t.counts.(t.n) <- count;
  t.n <- t.n + 1

let add_region t ~time ~base ~extent ~accesses =
  if extent > 0 && accesses > 0 then begin
    let b0 = base / block_bytes and b1 = (base + extent - 1) / block_bytes in
    let share = float_of_int accesses /. float_of_int (b1 - b0 + 1) in
    for b = b0 to b1 do
      push t time b share
    done
  end

(* Each cell sums its samples newest first, the order they were once
   kept in: float addition is not associative, and the coarse tool's
   fractional shares show the order in the last bits. *)
let matrix t =
  if t.n = 0 then [||]
  else begin
    let t_min = ref infinity and t_max = ref neg_infinity in
    let bmin = ref max_int and bmax = ref min_int in
    for i = 0 to t.n - 1 do
      t_min := Float.min !t_min t.times.(i);
      t_max := Float.max !t_max t.times.(i);
      bmin := Int.min !bmin t.blocks.(i);
      bmax := Int.max !bmax t.blocks.(i)
    done;
    let span = Float.max 1.0 (!t_max -. !t_min) in
    let m = Array.make_matrix (!bmax - !bmin + 1) t.time_buckets 0.0 in
    for i = t.n - 1 downto 0 do
      let col =
        Int.min (t.time_buckets - 1)
          (int_of_float ((t.times.(i) -. !t_min) /. span *. float_of_int t.time_buckets))
      in
      let row = m.(t.blocks.(i) - !bmin) in
      row.(col) <- row.(col) +. t.counts.(i)
    done;
    m
  end

let block_count t = Array.length (matrix t)

(* A row's total sums its windows in row order.  The top-20% share adds
   the row's largest [max 1 (buckets / 5)] windows in descending order,
   selected one by one from [top], an unboxed working copy of the row. *)
let classify_row (top : float array) (row : float array) =
  let buckets = Array.length row in
  let total = ref 0.0 and active = ref 0 in
  for j = 0 to buckets - 1 do
    total := !total +. row.(j);
    if row.(j) > 0.0 then incr active
  done;
  if !total <= 0.0 then Cold
  else if float_of_int !active >= 0.6 *. float_of_int buckets then Persistent_hot
  else begin
    Array.blit row 0 top 0 buckets;
    let top_sum = ref 0.0 in
    for j = 0 to Int.max 1 (buckets / 5) - 1 do
      let best = ref j in
      for k = j + 1 to buckets - 1 do
        if top.(k) > top.(!best) then best := k
      done;
      let v = top.(!best) in
      top.(!best) <- top.(j);
      top.(j) <- v;
      top_sum := !top_sum +. v
    done;
    if !top_sum >= 0.9 *. !total then Bursty else Cold
  end

let classes t m = Array.map (classify_row (Array.make t.time_buckets 0.0)) m
let classify t = Array.to_list (Array.mapi (fun i c -> (i, c)) (classes t (matrix t)))

let rows_classed cls t =
  List.filter_map (fun (i, c) -> if c = cls then Some i else None) (classify t)

let prefetch_candidates t = rows_classed Persistent_hot t
let evict_candidates t = rows_classed Bursty t

(* One matrix and one classification per report. *)
let report t ppf =
  let m = matrix t in
  if Array.length m = 0 then Format.fprintf ppf "hotness: no accesses observed@."
  else begin
    let rows = Array.length m in
    Format.fprintf ppf "hotness: %d blocks of %a over %d time windows@." rows
      Pasta_util.Bytesize.pp block_bytes t.time_buckets;
    (* Downsample rows for display. *)
    let display_rows = Int.min rows 48 in
    let group = (rows + display_rows - 1) / display_rows in
    let display = Array.make_matrix display_rows t.time_buckets 0.0 in
    for i = 0 to rows - 1 do
      let d = display.(Int.min (display_rows - 1) (i / group)) and row = m.(i) in
      for j = 0 to t.time_buckets - 1 do
        d.(j) <- d.(j) +. row.(j)
      done
    done;
    Pasta_util.Heatmap.render ppf
      ~row_label:(fun i -> Printf.sprintf "blk %5d" (i * group))
      display;
    let classes = classes t m in
    let count cls = Array.fold_left (fun n c -> if c = cls then n + 1 else n) 0 classes in
    Format.fprintf ppf "persistent-hot blocks (prefetch/pin candidates): %d@."
      (count Persistent_hot);
    Format.fprintf ppf "bursty blocks (proactive-eviction candidates): %d@."
      (count Bursty);
    (* Exact (rate-1.0) runs print nothing extra, keeping their output
       byte-identical to the pre-sampling pipeline. *)
    if t.est_rate_min < 1.0 then
      Format.fprintf ppf
        "note: estimated from sampled records (min rate %.3f, %d records \
         kept, worst-case ±%.1f%%)@."
        t.est_rate_min t.est_records
        (if t.est_records = 0 then 0.0
         else
           100.0
           *. sqrt
                ((1.0 -. t.est_rate_min)
                /. (float_of_int t.est_records *. t.est_rate_min)))
  end

let tool t =
  {
    (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_accelerated "hotness") with
    Pasta.Tool.on_event =
      (fun ev ->
        match ev.Pasta.Event.payload with
        | Pasta.Event.Kernel_region { region; _ } ->
            add_region t ~time:ev.Pasta.Event.time_us ~base:region.Pasta.Event.base
              ~extent:region.Pasta.Event.extent ~accesses:region.Pasta.Event.accesses
        | _ -> ());
    report = (fun ppf -> report t ppf);
  }

(* Fine-grained variant: per-block counts come from the parallel
   device-side reduction instead of region summaries, so a block's heat
   reflects the records actually sampled inside it rather than an even
   share of its region.  Devagg uses the same 2 MiB block size. *)
let tool_fine t =
  {
    (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_parallel "hotness_fine") with
    Pasta.Tool.on_event =
      (fun ev ->
        match ev.Pasta.Event.payload with
        | Pasta.Event.Device_summary { summary; _ } ->
            let time = ev.Pasta.Event.time_us in
            if summary.Pasta.Devagg.est_rate < 1.0 then begin
              if summary.Pasta.Devagg.est_rate < t.est_rate_min then
                t.est_rate_min <- summary.Pasta.Devagg.est_rate;
              t.est_records <-
                t.est_records + summary.Pasta.Devagg.sampled_records
            end;
            List.iter
              (fun (blk, count) -> if count > 0 then push t time blk (float_of_int count))
              summary.Pasta.Devagg.blocks
        | _ -> ());
    report = (fun ppf -> report t ppf);
  }
