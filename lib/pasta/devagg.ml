(* Device-side partial aggregation of materialized access batches.

   Mirrors the paper's GPU-resident reduction (Fig. 2b): each worker
   reduces its generation chunks into per-object counts, a block
   histogram and a per-region tally, independently and on any domain; the
   workers' tallies then merge once at kernel end.  Summary-only tools
   consume the merged result and never see raw records.  All per-count
   quantities are weighted by record weight, i.e. they are exact
   true-access counts, not sample counts. *)

module W = Gpusim.Warp

let block_bytes = 2 * 1024 * 1024

type summary = {
  objects : (Objmap.obj * int) list;
  blocks : (int * int) list;
  regions : (int * int) list;
  sampled_records : int;
  true_accesses : int;
  writes : int;
  est_rate : float;
}

(* Weighted tallies shared by every merge flavour, in mutable cells:
   tallies bump in place instead of re-inserting a fresh (value,
   bucket-cons) pair per run flush — access streams that alternate
   between two objects flush on every record, and a [find_opt]+[replace]
   round-trip there allocates ~8 words/record.  Sums are
   order-insensitive, and [finish] emits every list sorted by key, so a
   summary never depends on hash iteration order or on how the records
   were grouped into accumulators or devices. *)
type ocell = { oc_obj : Objmap.obj; mutable oc_w : int }
type bcell = { mutable bc_w : int }

let bcell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = { bc_w = 0 } in
      Hashtbl.add tbl key c;
      c

let bump tbl key w =
  let c = bcell tbl key in
  c.bc_w <- c.bc_w + w

(* A key keeps the object it was first bumped with. *)
let bump_obj tbl key obj w =
  match Hashtbl.find_opt tbl key with
  | Some c -> c.oc_w <- c.oc_w + w
  | None -> Hashtbl.add tbl key { oc_obj = obj; oc_w = w }

let sorted_pairs tbl =
  List.sort
    (fun ((a, _) : int * int) (b, _) -> compare a b)
    (Hashtbl.fold (fun k c acc -> (k, c.bc_w) :: acc) tbl [])

let finish ~est_rate ~objects ~blocks ~regions ~records ~weight ~writes =
  {
    objects =
      List.sort
        (fun (a, _) (b, _) -> compare (Objmap.obj_key a) (Objmap.obj_key b))
        (Hashtbl.fold (fun _ c acc -> (c.oc_obj, c.oc_w) :: acc) objects []);
    blocks = sorted_pairs blocks;
    regions = sorted_pairs regions;
    sampled_records = records;
    true_accesses = weight;
    writes;
    est_rate;
  }

(* ---- Per-domain accumulators --------------------------------------- *)

(* One accumulator per worker domain, reused across every chunk that worker
   reduces (and, via {!accum_reset}, across kernels): batches flush their
   run-length tallies into persistent hashtables, with no per-chunk
   tables.  Everything is merged exactly once per kernel in
   [merge_accums].

   Determinism: the weighted tallies and the count sums are independent
   of which worker reduced which chunk, and [finish] sorts before
   producing output, so the summary is byte-identical at any domain
   count. *)

let no_obj = Objmap.Unknown 0

type accum = {
  a_objects : (int, ocell) Hashtbl.t;
  a_blocks : (int, bcell) Hashtbl.t;
  a_regions : (int, bcell) Hashtbl.t;  (* batch region index -> weight *)
  mutable a_records : int;
  mutable a_weight : int;
  mutable a_writes : int;
  (* Run state of the batch being reduced.  The resolve memo is the last
     known object resolved in this batch; it is reset per batch, because
     which object an address inside a tensor-within-allocation resolves
     to depends on it.  The open object run and block run flush into the
     tables when their key changes. *)
  mutable memo_base : int;
  mutable memo_limit : int;
  mutable memo_obj : Objmap.obj;
  mutable run_key : int;
  mutable run_obj : Objmap.obj;
  mutable run_w : int;
  mutable blk : int;
  mutable blk_w : int;
  mutable walk_obj : Objmap.obj;  (* what the walked run's first address resolved to *)
  (* Two-slot rotation cache over the cells runs flush into: interleaved
     streams (A,B,A,B,...) flush on every record, and the cache turns
     those flushes into a compare and an in-place bump — no hashing.
     Cleared with the tables. *)
  mutable oc0_key : int;
  mutable oc0 : ocell;
  mutable oc1_key : int;
  mutable oc1 : ocell;
  mutable bc0_key : int;
  mutable bc0 : bcell;
  mutable bc1_key : int;
  mutable bc1 : bcell;
}

let accum_create () =
  let oc = { oc_obj = no_obj; oc_w = 0 } and bc = { bc_w = 0 } in
  {
    a_objects = Hashtbl.create 32;
    a_blocks = Hashtbl.create 64;
    a_regions = Hashtbl.create 8;
    a_records = 0;
    a_weight = 0;
    a_writes = 0;
    memo_base = min_int;
    memo_limit = min_int;
    memo_obj = no_obj;
    run_key = min_int;
    run_obj = no_obj;
    run_w = 0;
    blk = min_int;
    blk_w = 0;
    walk_obj = no_obj;
    oc0_key = min_int;
    oc0 = oc;
    oc1_key = min_int;
    oc1 = oc;
    bc0_key = min_int;
    bc0 = bc;
    bc1_key = min_int;
    bc1 = bc;
  }

(* [Hashtbl.clear] keeps the grown bucket arrays, so a reused accumulator
   reaches its steady-state footprint after the first kernel and stops
   allocating. *)
let accum_reset acc =
  Hashtbl.clear acc.a_objects;
  Hashtbl.clear acc.a_blocks;
  Hashtbl.clear acc.a_regions;
  acc.a_records <- 0;
  acc.a_weight <- 0;
  acc.a_writes <- 0;
  acc.oc0_key <- min_int;
  acc.oc1_key <- min_int;
  acc.bc0_key <- min_int;
  acc.bc1_key <- min_int

let flush_obj acc =
  if acc.run_w > 0 then begin
    let key = acc.run_key in
    if key = acc.oc0_key then acc.oc0.oc_w <- acc.oc0.oc_w + acc.run_w
    else begin
      let c =
        if key = acc.oc1_key then acc.oc1
        else
          match Hashtbl.find_opt acc.a_objects key with
          | Some c -> c
          | None ->
              let c = { oc_obj = acc.run_obj; oc_w = 0 } in
              Hashtbl.add acc.a_objects key c;
              c
      in
      c.oc_w <- c.oc_w + acc.run_w;
      acc.oc1_key <- acc.oc0_key;
      acc.oc1 <- acc.oc0;
      acc.oc0_key <- key;
      acc.oc0 <- c
    end
  end

let flush_blk acc =
  if acc.blk_w > 0 then begin
    let key = acc.blk in
    if key = acc.bc0_key then acc.bc0.bc_w <- acc.bc0.bc_w + acc.blk_w
    else begin
      let c = if key = acc.bc1_key then acc.bc1 else bcell acc.a_blocks key in
      c.bc_w <- c.bc_w + acc.blk_w;
      acc.bc1_key <- acc.bc0_key;
      acc.bc1 <- acc.bc0;
      acc.bc0_key <- key;
      acc.bc0 <- c
    end
  end

(* The one run consumer: [w] weight of consecutive records that all
   resolved to [obj] (keyed [key]) in block [blk].  The dense scan feeds
   one record at a time, the descriptor walker a whole run at once; a
   run extends the open runs whose key it shares, and since feeding
   records one by one or summed gives the same state, both producers
   leave the same tallies. *)
let feed acc key obj blk w =
  if key = acc.run_key then acc.run_w <- acc.run_w + w
  else begin
    flush_obj acc;
    acc.run_key <- key;
    acc.run_obj <- obj;
    acc.run_w <- w
  end;
  if blk = acc.blk then acc.blk_w <- acc.blk_w + w
  else begin
    flush_blk acc;
    acc.blk <- blk;
    acc.blk_w <- w
  end

(* Resolve through the batch's memo, refreshing it on a known object. *)
let resolve acc view addr =
  if addr >= acc.memo_base && addr < acc.memo_limit then acc.memo_obj
  else
    match Objmap.resolve_view view addr with
    | Objmap.Unknown _ as u -> u
    | obj ->
        let base = Objmap.obj_key obj in
        acc.memo_base <- base;
        acc.memo_limit <- base + Objmap.obj_bytes obj;
        acc.memo_obj <- obj;
        obj

(* The first address past [addr] that may resolve differently or fall
   in another block: the memo's limit when [addr] resolved through it
   (an unknown address leaves the memo alone, so only [addr] itself is
   sure to resolve the same), capped at the next block boundary.
   Addresses are non-negative ({!Gpusim.Warp.closed_form}). *)
let run_limit acc addr =
  let obj_limit =
    if addr >= acc.memo_base && addr < acc.memo_limit then acc.memo_limit else addr + 1
  in
  Int.min obj_limit (((addr / block_bytes) + 1) * block_bytes)

(* Reduce a descriptor by arithmetic into the runs the record scan of
   its columns would form: the walker resolves each run's first address,
   which the run's records then share up to [run_limit]. *)
let add_descriptor acc view b (spec : W.chunk_spec) =
  W.walk spec
    ~limit:(fun addr ->
      acc.walk_obj <- resolve acc view addr;
      run_limit acc addr)
    ~run:(fun addr w ->
      let obj = acc.walk_obj in
      feed acc (Objmap.obj_key obj) obj (addr / block_bytes) w);
  let weight = W.batch_weight b in
  if spec.W.cs_region.Gpusim.Kernel.write then acc.a_writes <- acc.a_writes + weight;
  weight

let add_dense acc view (c : W.cols) len =
  let weight = ref 0 and writes = ref 0 in
  let addrs = c.W.addrs and weights = c.W.weights and wflags = c.W.writes in
  for i = 0 to len - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i
    and w = Bigarray.Array1.unsafe_get weights i in
    let obj = resolve acc view addr in
    feed acc (Objmap.obj_key obj) obj (addr / block_bytes) w;
    weight := !weight + w;
    if Bigarray.Array1.unsafe_get wflags i <> 0 then writes := !writes + w
  done;
  acc.a_writes <- acc.a_writes + !writes;
  !weight

let accum_add acc view (b : W.batch) =
  acc.memo_base <- min_int;
  acc.memo_limit <- min_int;
  acc.run_key <- min_int;
  acc.run_w <- 0;
  acc.blk <- min_int;
  acc.blk_w <- 0;
  let weight =
    match b.W.b_shape with
    | W.Descriptor { spec; _ } -> add_descriptor acc view b spec
    | W.Dense _ -> add_dense acc view (W.cols b) b.W.b_len
  in
  flush_obj acc;
  flush_blk acc;
  (* The batch header carries the chunk's region index, so the per-region
     weighted tally costs one hashtable bump per batch, not per record. *)
  if weight > 0 then bump acc.a_regions b.W.b_region weight;
  acc.a_records <- acc.a_records + b.W.b_len;
  acc.a_weight <- acc.a_weight + weight

(* Fold accumulators 1..n-1 into accumulator 0's tables, in order, and
   reset them; then emit accumulator 0.  A key keeps the object of the
   first accumulator that holds it.  Merging the same array again finds
   everything in accumulator 0 and emits the same summary. *)
let merge_accums ?(est_rate = 1.0) accums =
  let a0 = accums.(0) in
  for i = 1 to Array.length accums - 1 do
    let a = accums.(i) in
    Hashtbl.iter (fun key c -> bump_obj a0.a_objects key c.oc_obj c.oc_w) a.a_objects;
    Hashtbl.iter (fun blk c -> bump a0.a_blocks blk c.bc_w) a.a_blocks;
    Hashtbl.iter (fun r c -> bump a0.a_regions r c.bc_w) a.a_regions;
    a0.a_records <- a0.a_records + a.a_records;
    a0.a_weight <- a0.a_weight + a.a_weight;
    a0.a_writes <- a0.a_writes + a.a_writes;
    accum_reset a
  done;
  finish ~est_rate ~objects:a0.a_objects ~blocks:a0.a_blocks ~regions:a0.a_regions
    ~records:a0.a_records ~weight:a0.a_weight ~writes:a0.a_writes

(* Summary-level merge, for hierarchical (fleet) reduction: combine
   already-merged per-device summaries into one.  All counts are sums and
   every output list is kept sorted, so the result depends only on the
   multiset of inputs — merge nodes can run on any domain in any order.
   [est_rate] defaults to the record-weighted mean of the inputs' rates,
   which keeps [rel_stderr] meaningful for the combined estimate. *)
let merge_summaries ?est_rate summaries =
  let objects = Hashtbl.create 64 and blocks = Hashtbl.create 128 in
  let regions = Hashtbl.create 8 in
  let records = ref 0 and weight = ref 0 and writes = ref 0 in
  let rate_num = ref 0.0 in
  List.iter
    (fun s ->
      List.iter (fun (obj, w) -> bump_obj objects (Objmap.obj_key obj) obj w) s.objects;
      List.iter (fun (blk, w) -> bump blocks blk w) s.blocks;
      List.iter (fun (r, w) -> bump regions r w) s.regions;
      records := !records + s.sampled_records;
      weight := !weight + s.true_accesses;
      writes := !writes + s.writes;
      rate_num := !rate_num +. (s.est_rate *. float_of_int s.sampled_records))
    summaries;
  let est_rate =
    match est_rate with
    | Some r -> r
    | None -> if !records = 0 then 1.0 else !rate_num /. float_of_int !records
  in
  finish ~est_rate ~objects ~blocks ~regions ~records:!records ~weight:!weight
    ~writes:!writes

(* Structural validation for failure-aware merge nodes.  Every record of a
   well-formed summary lands in exactly one object, one block and one
   region, so each tally must sum to [true_accesses]; output lists must be
   sorted with positive counts.  A summary corrupted in flight (bit flips
   on the counts, shuffled lists) fails one of these and the merge node
   drops it instead of poisoning the reduction. *)
let validate s =
  let rec sorted_pos prev = function
    | [] -> true
    | (k, w) :: rest -> w > 0 && k > prev && sorted_pos k rest
  in
  let osum = List.fold_left (fun acc (_, w) -> acc + w) 0 s.objects in
  let bsum = List.fold_left (fun acc (_, w) -> acc + w) 0 s.blocks in
  let rsum = List.fold_left (fun acc (_, w) -> acc + w) 0 s.regions in
  if s.true_accesses < 0 || s.sampled_records < 0 || s.writes < 0 then
    Error "negative count"
  else if s.writes > s.true_accesses then Error "writes exceed accesses"
  else if osum <> s.true_accesses then Error "object weights do not sum to total"
  else if bsum <> s.true_accesses then Error "block weights do not sum to total"
  else if rsum <> s.true_accesses then Error "region weights do not sum to total"
  else if not (sorted_pos min_int s.regions) then
    Error "region list unsorted or non-positive"
  else if
    not
      (sorted_pos min_int
         (List.map (fun (o, w) -> (Objmap.obj_key o, w)) s.objects))
  then Error "object list unsorted or non-positive"
  else if not (sorted_pos min_int s.blocks) then
    Error "block list unsorted or non-positive"
  else if not (Float.is_finite s.est_rate) || s.est_rate <= 0.0 || s.est_rate > 1.0
  then Error "est_rate outside (0, 1]"
  else Ok ()

(* Relative standard error of an inverse-probability-weighted total built
   from [n] kept records at rate [p]: sqrt((1-p) / (n*p)).  Zero for exact
   (rate-1.0) summaries. *)
let rel_stderr s =
  if s.est_rate >= 1.0 || s.sampled_records = 0 then 0.0
  else
    sqrt ((1.0 -. s.est_rate) /. (float_of_int s.sampled_records *. s.est_rate))

let pp ppf s =
  Format.fprintf ppf
    "@[<v>%d objects, %d hot blocks; %d records standing for %d accesses (%d \
     writes)@]"
    (List.length s.objects) (List.length s.blocks) s.sampled_records
    s.true_accesses s.writes;
  if s.est_rate < 1.0 then
    Format.fprintf ppf " [estimate, rate %.3f, ±%.1f%%]" s.est_rate
      (100.0 *. rel_stderr s)
