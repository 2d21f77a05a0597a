(* The reference aggregator for [Pasta.Devagg]'s per-domain accumulators:
   the per-chunk shard path the processor ran before it kept one
   accumulator per worker.  Each batch reduces on its own, by a scan of
   its columns ([Gpusim.Warp.cols], so a descriptor is materialized
   first), into fresh tables; the shards then merge in the order given.
   It shares no code with the accumulators, so an agreement between the
   two is evidence, not a tautology. *)

module W = Gpusim.Warp
module O = Pasta.Objmap

type shard = {
  s_objects : (int, O.obj * int) Hashtbl.t;  (* obj_key -> (obj, weight) *)
  s_blocks : (int, int) Hashtbl.t;  (* block index -> weight *)
  s_regions : (int * int) list;  (* batch region index -> weight *)
  s_records : int;
  s_weight : int;
  s_writes : int;
}

let bump tbl k w = Hashtbl.replace tbl k (w + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* A key keeps the object it was first bumped with: a tensor sharing an
   allocation's base shares its key, so which of the two a summary names
   follows the order the records (and then the shards) arrive in. *)
let bump_obj tbl key obj w =
  match Hashtbl.find_opt tbl key with
  | Some (o, acc) -> Hashtbl.replace tbl key (o, acc + w)
  | None -> Hashtbl.add tbl key (obj, w)

(* Both tallies are run-length accumulated and touch their table only
   when the run breaks, so a run of zero total weight leaves no entry.
   The resolve memo holds the last known object of this batch: an
   address inside it resolves to it, even where a nested tensor would
   claim the address on a fresh lookup. *)
let aggregate view (b : W.batch) =
  let objects = Hashtbl.create 16 and blocks = Hashtbl.create 32 in
  let weight = ref 0 and writes = ref 0 in
  let memo_base = ref min_int and memo_limit = ref min_int in
  let memo_obj = ref (O.Unknown 0) in
  let cur_key = ref min_int and cur_obj = ref (O.Unknown 0) and cur_w = ref 0 in
  let cur_blk = ref min_int and cur_blk_w = ref 0 in
  let flush_obj () = if !cur_w > 0 then bump_obj objects !cur_key !cur_obj !cur_w in
  let flush_blk () = if !cur_blk_w > 0 then bump blocks !cur_blk !cur_blk_w in
  let c = W.cols b in
  for i = 0 to b.W.b_len - 1 do
    let addr = c.W.addrs.{i} and w = c.W.weights.{i} in
    let obj =
      if addr >= !memo_base && addr < !memo_limit then !memo_obj
      else
        match O.resolve_view view addr with
        | O.Unknown _ as u -> u
        | obj ->
            memo_base := O.obj_key obj;
            memo_limit := O.obj_key obj + O.obj_bytes obj;
            memo_obj := obj;
            obj
    in
    let key = O.obj_key obj in
    if key = !cur_key then cur_w := !cur_w + w
    else begin
      flush_obj ();
      cur_key := key;
      cur_obj := obj;
      cur_w := w
    end;
    let blk = addr / Pasta.Devagg.block_bytes in
    if blk = !cur_blk then cur_blk_w := !cur_blk_w + w
    else begin
      flush_blk ();
      cur_blk := blk;
      cur_blk_w := w
    end;
    weight := !weight + w;
    if c.W.writes.{i} <> 0 then writes := !writes + w
  done;
  flush_obj ();
  flush_blk ();
  {
    s_objects = objects;
    s_blocks = blocks;
    (* a generation chunk belongs to one kernel memory region *)
    s_regions = (if !weight > 0 then [ (b.W.b_region, !weight) ] else []);
    s_records = b.W.b_len;
    s_weight = !weight;
    s_writes = !writes;
  }

let sorted_pairs tbl =
  List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl [])

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
  {
    Pasta.Devagg.objects =
      List.sort
        (fun (a, _) (b, _) -> compare (O.obj_key a) (O.obj_key b))
        (Hashtbl.fold (fun _ ow acc -> ow :: acc) objects []);
    blocks = sorted_pairs blocks;
    regions = sorted_pairs regions;
    sampled_records = !records;
    true_accesses = !weight;
    writes = !writes;
    est_rate;
  }
