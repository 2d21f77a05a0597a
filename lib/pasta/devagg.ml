(* Device-side partial aggregation of materialized access batches.

   Mirrors the paper's GPU-resident reduction (Fig. 2b): each shard — one
   generation chunk — reduces its records into per-object counts, a block
   histogram and a per-region tally, independently and on any domain; the
   shards then merge in deterministic chunk order at kernel end.
   Summary-only tools consume the merged result and never see raw
   records.  All per-count quantities are weighted by record weight, i.e.
   they are exact true-access counts, not sample counts. *)

module W = Gpusim.Warp

let block_bytes = 2 * 1024 * 1024

type shard = {
  s_objects : (int, Objmap.obj * int) Hashtbl.t;  (* obj_key -> (obj, weight) *)
  s_blocks : (int, int) Hashtbl.t;  (* block index -> weight *)
  s_regions : (int * int) list;  (* batch region index -> weight *)
  s_records : int;
  s_weight : int;
  s_writes : int;
}

type summary = {
  objects : (Objmap.obj * int) list;
  blocks : (int * int) list;
  regions : (int * int) list;
  sampled_records : int;
  true_accesses : int;
  writes : int;
  est_rate : float;
}

(* Weighted tallies shared by every merge flavour.  Sums are
   order-insensitive, and [finish] emits every list sorted by key, so a
   summary never depends on hash iteration order or on how the records
   were grouped into shards, accumulators or devices. *)
let bump tbl k w = Hashtbl.replace tbl k (w + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let bump_obj tbl key obj w =
  match Hashtbl.find_opt tbl key with
  | Some (o, acc) -> Hashtbl.replace tbl key (o, acc + w)
  | None -> Hashtbl.add tbl key (obj, w)

let sorted_pairs tbl =
  List.sort
    (fun ((a, _) : int * int) (b, _) -> compare a b)
    (Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl [])

let finish ~est_rate ~objects ~blocks ~regions ~records ~weight ~writes =
  {
    objects =
      List.sort
        (fun (a, _) (b, _) -> compare (Objmap.obj_key a) (Objmap.obj_key b))
        (Hashtbl.fold (fun _ ow acc -> ow :: acc) objects []);
    blocks = sorted_pairs blocks;
    regions = sorted_pairs regions;
    sampled_records = records;
    true_accesses = weight;
    writes;
    est_rate;
  }

let aggregate view (b : W.batch) =
  let objects = Hashtbl.create 16 and blocks = Hashtbl.create 32 in
  let weight = ref 0 and writes = ref 0 in
  (* Generation chunks have strong locality — long runs of records hit the
     same object and the same 2 MiB block — so both tallies are run-length
     accumulated and only touch their hashtable when the run breaks.  The
     resolve memo is shard-local for the same reason Objmap's is not used
     here: it must be domain-safe. *)
  let memo_base = ref min_int and memo_limit = ref min_int in
  let memo_obj = ref (Objmap.Unknown 0) in
  let cur_key = ref min_int and cur_obj = ref (Objmap.Unknown 0) and cur_w = ref 0 in
  let cur_blk = ref min_int and cur_blk_w = ref 0 in
  let flush_obj () = if !cur_w > 0 then bump_obj objects !cur_key !cur_obj !cur_w in
  let flush_blk () = if !cur_blk_w > 0 then bump blocks !cur_blk !cur_blk_w in
  for i = 0 to b.W.b_len - 1 do
    let addr = Bigarray.Array1.unsafe_get b.W.addrs i
    and w = Bigarray.Array1.unsafe_get b.W.weights i in
    let obj =
      if addr >= !memo_base && addr < !memo_limit then !memo_obj
      else
        match Objmap.resolve_view view addr with
        | Objmap.Unknown _ as u -> u
        | obj ->
            let base = Objmap.obj_key obj in
            memo_base := base;
            memo_limit := base + Objmap.obj_bytes obj;
            memo_obj := obj;
            obj
    in
    let key = Objmap.obj_key obj in
    if key = !cur_key then cur_w := !cur_w + w
    else begin
      flush_obj ();
      cur_key := key;
      cur_obj := obj;
      cur_w := w
    end;
    let blk = addr / block_bytes in
    if blk = !cur_blk then cur_blk_w := !cur_blk_w + w
    else begin
      flush_blk ();
      cur_blk := blk;
      cur_blk_w := w
    end;
    weight := !weight + w;
    if Bigarray.Array1.unsafe_get b.W.writes i <> 0 then writes := !writes + w
  done;
  flush_obj ();
  flush_blk ();
  {
    s_objects = objects;
    s_blocks = blocks;
    (* One generation chunk belongs to exactly one kernel memory region
       ([b_region]), so the per-region weighted tally is one pair — the
       weights, not the record count, so sampled runs stay unbiased. *)
    s_regions = (if !weight > 0 then [ (b.W.b_region, !weight) ] else []);
    s_records = b.W.b_len;
    s_weight = !weight;
    s_writes = !writes;
  }

let merge ?(est_rate = 1.0) shards =
  let objects = Hashtbl.create 32 and blocks = Hashtbl.create 64 in
  let regions = Hashtbl.create 8 in
  let records = ref 0 and weight = ref 0 and writes = ref 0 in
  Array.iter
    (fun s ->
      Hashtbl.iter (fun key (obj, w) -> bump_obj objects key obj w) s.s_objects;
      Hashtbl.iter (bump blocks) s.s_blocks;
      List.iter (fun (r, w) -> bump regions r w) s.s_regions;
      records := !records + s.s_records;
      weight := !weight + s.s_weight;
      writes := !writes + s.s_writes)
    shards;
  finish ~est_rate ~objects ~blocks ~regions ~records:!records ~weight:!weight
    ~writes:!writes

(* ---- Per-domain accumulators (columnar hot path) --------------------- *)

(* One accumulator per worker domain, reused across every chunk that worker
   reduces (and, via {!accum_reset}, across kernels): batches flush their
   run-length tallies into persistent hashtables, so the fresh per-chunk
   tables of [aggregate]+[merge] disappear.  Everything is merged exactly
   once per kernel in [merge_accums].

   Determinism: the weighted tallies and the count sums are independent
   of which worker reduced which chunk, and [finish] sorts before
   producing output, so the summary is byte-identical to the per-chunk
   [aggregate]+[merge] path at any domain count. *)

(* Mutable table cells: tallies bump in place instead of re-inserting a
   fresh (value, bucket-cons) pair per run flush — access streams that
   alternate between two objects flush on every record, and a
   [find_opt]+[replace] round-trip there allocates ~8 words/record. *)
type ocell = { oc_obj : Objmap.obj; mutable oc_w : int }
type bcell = { mutable bc_w : int }

let bcell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = { bc_w = 0 } in
      Hashtbl.add tbl key c;
      c

type accum = {
  a_objects : (int, ocell) Hashtbl.t;
  a_blocks : (int, bcell) Hashtbl.t;
  a_regions : (int, bcell) Hashtbl.t;  (* batch region index -> weight *)
  mutable a_records : int;
  mutable a_weight : int;
  mutable a_writes : int;
}

let accum_create () =
  {
    a_objects = Hashtbl.create 32;
    a_blocks = Hashtbl.create 64;
    a_regions = Hashtbl.create 8;
    a_records = 0;
    a_weight = 0;
    a_writes = 0;
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
  acc.a_writes <- 0

let accum_add acc view (b : W.batch) =
  let weight = ref 0 and writes = ref 0 in
  (* Same run-length accumulation as [aggregate], flushing into the
     accumulator's persistent tables instead of fresh per-chunk ones. *)
  let memo_base = ref min_int and memo_limit = ref min_int in
  let memo_obj = ref (Objmap.Unknown 0) in
  let cur_key = ref min_int and cur_obj = ref (Objmap.Unknown 0) and cur_w = ref 0 in
  let cur_blk = ref min_int and cur_blk_w = ref 0 in
  (* Two-slot rotation cache over the cells the runs land in: interleaved
     streams (A,B,A,B,...) flush on every record, and the cache turns
     those flushes into a compare and an in-place bump — no hashing. *)
  let oc0_key = ref min_int and oc0 = ref { oc_obj = Objmap.Unknown 0; oc_w = 0 } in
  let oc1_key = ref min_int and oc1 = ref !oc0 in
  let bc0_key = ref min_int and bc0 = ref { bc_w = 0 } in
  let bc1_key = ref min_int and bc1 = ref !bc0 in
  let flush_obj () =
    if !cur_w > 0 then begin
      let key = !cur_key in
      if key = !oc0_key then !oc0.oc_w <- !oc0.oc_w + !cur_w
      else if key = !oc1_key then begin
        let c = !oc1 in
        c.oc_w <- c.oc_w + !cur_w;
        oc1_key := !oc0_key;
        oc1 := !oc0;
        oc0_key := key;
        oc0 := c
      end
      else begin
        let c =
          match Hashtbl.find_opt acc.a_objects key with
          | Some c -> c
          | None ->
              let c = { oc_obj = !cur_obj; oc_w = 0 } in
              Hashtbl.add acc.a_objects key c;
              c
        in
        c.oc_w <- c.oc_w + !cur_w;
        oc1_key := !oc0_key;
        oc1 := !oc0;
        oc0_key := key;
        oc0 := c
      end
    end
  in
  let flush_blk () =
    if !cur_blk_w > 0 then begin
      let key = !cur_blk in
      if key = !bc0_key then !bc0.bc_w <- !bc0.bc_w + !cur_blk_w
      else if key = !bc1_key then begin
        let c = !bc1 in
        c.bc_w <- c.bc_w + !cur_blk_w;
        bc1_key := !bc0_key;
        bc1 := !bc0;
        bc0_key := key;
        bc0 := c
      end
      else begin
        let c = bcell acc.a_blocks key in
        c.bc_w <- c.bc_w + !cur_blk_w;
        bc1_key := !bc0_key;
        bc1 := !bc0;
        bc0_key := key;
        bc0 := c
      end
    end
  in
  let addrs = b.W.addrs and weights = b.W.weights and wflags = b.W.writes in
  for i = 0 to b.W.b_len - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i
    and w = Bigarray.Array1.unsafe_get weights i in
    let obj =
      if addr >= !memo_base && addr < !memo_limit then !memo_obj
      else
        match Objmap.resolve_view view addr with
        | Objmap.Unknown _ as u -> u
        | obj ->
            let base = Objmap.obj_key obj in
            memo_base := base;
            memo_limit := base + Objmap.obj_bytes obj;
            memo_obj := obj;
            obj
    in
    let key = Objmap.obj_key obj in
    if key = !cur_key then cur_w := !cur_w + w
    else begin
      flush_obj ();
      cur_key := key;
      cur_obj := obj;
      cur_w := w
    end;
    let blk = addr / block_bytes in
    if blk = !cur_blk then cur_blk_w := !cur_blk_w + w
    else begin
      flush_blk ();
      cur_blk := blk;
      cur_blk_w := w
    end;
    weight := !weight + w;
    if Bigarray.Array1.unsafe_get wflags i <> 0 then writes := !writes + w
  done;
  flush_obj ();
  flush_blk ();
  (* The batch header carries the chunk's region index, so the per-region
     weighted tally costs one hashtable bump per batch, not per record. *)
  if !weight > 0 then begin
    let c = bcell acc.a_regions b.W.b_region in
    c.bc_w <- c.bc_w + !weight
  end;
  acc.a_records <- acc.a_records + b.W.b_len;
  acc.a_weight <- acc.a_weight + !weight;
  acc.a_writes <- acc.a_writes + !writes

let merge_accums ?(est_rate = 1.0) accums =
  let objects = Hashtbl.create 32 and blocks = Hashtbl.create 64 in
  let regions = Hashtbl.create 8 in
  let records = ref 0 and weight = ref 0 and writes = ref 0 in
  Array.iter
    (fun a ->
      Hashtbl.iter (fun key (c : ocell) -> bump_obj objects key c.oc_obj c.oc_w) a.a_objects;
      Hashtbl.iter (fun blk (c : bcell) -> bump blocks blk c.bc_w) a.a_blocks;
      Hashtbl.iter (fun r (c : bcell) -> bump regions r c.bc_w) a.a_regions;
      records := !records + a.a_records;
      weight := !weight + a.a_weight;
      writes := !writes + a.a_writes)
    accums;
  finish ~est_rate ~objects ~blocks ~regions ~records:!records ~weight:!weight
    ~writes:!writes

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
