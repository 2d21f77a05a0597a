module D = Gpusim.Device
module Freelist = Pasta_util.Freelist

let round_to = 512
let small_limit = 1024 * 1024 (* requests below this use the small pool *)
let small_segment = 2 * 1024 * 1024
let mid_limit = 10 * 1024 * 1024
let mid_segment = 20 * 1024 * 1024

type block = {
  id : int;
  base : int;
  bytes : int;
  requested : int;
  seg_base : int;
  seg_bytes : int;
}

type segment = {
  sbase : int;
  sbytes : int;
  pool : [ `Small | `Large ];
  mutable free : Freelist.t;
  mutable live_blocks : int;
}

type t = {
  dev : D.t;
  is_managed : bool;
  mutable segs : segment list; (* most-recently-created first *)
  live : (int, block) Hashtbl.t; (* keyed by block base *)
  mutable allocated : int;
  mutable reserved : int;
  mutable peak_alloc : int;
  mutable peak_reserved : int;
  mutable allocs : int;
  mutable frees : int;
  mutable next_id : int;
}

let create ?(managed = false) dev =
  {
    dev;
    is_managed = managed;
    segs = [];
    live = Hashtbl.create 256;
    allocated = 0;
    reserved = 0;
    peak_alloc = 0;
    peak_reserved = 0;
    allocs = 0;
    frees = 0;
    next_id = 0;
  }

let allocated_bytes t = t.allocated
let reserved_bytes t = t.reserved
let peak_allocated t = t.peak_alloc
let peak_reserved t = t.peak_reserved
let segment_count t = List.length t.segs

let segment_of_addr t addr =
  List.find_map
    (fun s -> if addr >= s.sbase && addr < s.sbase + s.sbytes then Some (s.sbase, s.sbytes) else None)
    t.segs

let rounded bytes = max round_to (Pasta_util.Bytesize.align_up bytes ~align:round_to)

let pool_of bytes = if bytes < small_limit then `Small else `Large

let segment_size_for bytes =
  if bytes < small_limit then small_segment
  else if bytes < mid_limit then mid_segment
  else Pasta_util.Bytesize.align_up bytes ~align:small_segment

let new_segment t ~bytes =
  let seg_bytes = segment_size_for bytes in
  let tag = if t.is_managed then "pool-segment-managed" else "pool-segment" in
  let alloc =
    if t.is_managed then D.malloc_managed t.dev ~tag seg_bytes
    else D.malloc t.dev ~tag seg_bytes
  in
  let s =
    {
      sbase = alloc.Gpusim.Device_mem.base;
      sbytes = alloc.Gpusim.Device_mem.bytes;
      pool = pool_of bytes;
      free = Freelist.singleton ~base:alloc.Gpusim.Device_mem.base ~bytes:alloc.Gpusim.Device_mem.bytes;
      live_blocks = 0;
    }
  in
  t.segs <- s :: t.segs;
  t.reserved <- t.reserved + s.sbytes;
  t.peak_reserved <- max t.peak_reserved t.reserved;
  s

let release_cached t =
  let empty, keep = List.partition (fun s -> s.live_blocks = 0) t.segs in
  List.iter
    (fun s ->
      D.free t.dev s.sbase;
      t.reserved <- t.reserved - s.sbytes)
    empty;
  t.segs <- keep

(* Best-fit across the pool's segments, like the size-ordered block sets of
   the CUDA caching allocator; first-fit fragments badly under the
   alloc-heavy training loops. *)
let find_space t ~bytes =
  let pool = pool_of bytes in
  let best = ref None in
  List.iter
    (fun s ->
      if s.pool = pool then
        List.iter
          (fun (hole_base, hole) ->
            if hole >= bytes then
              match !best with
              | Some (_, _, h) when h <= hole -> ()
              | _ -> best := Some (s, hole_base, hole))
          (Freelist.holes s.free))
    t.segs;
  match !best with
  | None -> None
  | Some (s, base, _) -> (
      match Freelist.take_at s.free ~base ~bytes with
      | Some free' ->
          s.free <- free';
          Some (s, base)
      | None -> None)

let alloc t ?(tag = "tensor") requested =
  if requested < 0 then invalid_arg "Allocator.alloc: negative size";
  let bytes = rounded requested in
  let seg, base =
    match find_space t ~bytes with
    | Some r -> r
    | None -> (
        (* Grow the pool; under memory pressure, release cached segments and
           retry once before giving up — cudaMalloc retry-after-emptyCache. *)
        match new_segment t ~bytes with
        | s -> (
            match Freelist.take_first_fit s.free ~bytes with
            | Some (base, free') ->
                s.free <- free';
                (s, base)
            | None -> assert false)
        | exception Gpusim.Device_mem.Out_of_memory _ -> (
            release_cached t;
            let s = new_segment t ~bytes in
            match Freelist.take_first_fit s.free ~bytes with
            | Some (base, free') ->
                s.free <- free';
                (s, base)
            | None -> assert false))
  in
  seg.live_blocks <- seg.live_blocks + 1;
  let b =
    {
      id = t.next_id;
      base;
      bytes;
      requested;
      seg_base = seg.sbase;
      seg_bytes = seg.sbytes;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.add t.live base b;
  t.allocated <- t.allocated + bytes;
  t.peak_alloc <- max t.peak_alloc t.allocated;
  t.allocs <- t.allocs + 1;
  Callbacks.report_memory_usage
    {
      Callbacks.ptr = base;
      size_delta = bytes;
      total_allocated = t.allocated;
      total_reserved = t.reserved;
      device_id = D.id t.dev;
      tag;
    };
  b

let free t (b : block) =
  (match Hashtbl.find_opt t.live b.base with
  | Some live when live.id = b.id -> ()
  | _ -> invalid_arg "Allocator.free: not a live block (double free?)");
  Hashtbl.remove t.live b.base;
  let seg =
    match List.find_opt (fun s -> s.sbase = b.seg_base) t.segs with
    | Some s -> s
    | None -> invalid_arg "Allocator.free: owning segment is gone"
  in
  seg.free <- Freelist.insert seg.free ~base:b.base ~bytes:b.bytes;
  seg.live_blocks <- seg.live_blocks - 1;
  t.allocated <- t.allocated - b.bytes;
  t.frees <- t.frees + 1;
  Callbacks.report_memory_usage
    {
      Callbacks.ptr = b.base;
      size_delta = -b.bytes;
      total_allocated = t.allocated;
      total_reserved = t.reserved;
      device_id = D.id t.dev;
      tag = "free";
    }

let destroy t =
  List.iter (fun s -> D.free t.dev s.sbase) t.segs;
  t.reserved <- 0;
  t.allocated <- 0;
  t.segs <- [];
  Hashtbl.reset t.live

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let live_total = Hashtbl.fold (fun _ b acc -> acc + b.bytes) t.live 0 in
  if live_total <> t.allocated then fail "Allocator: allocated drift";
  let seg_total = List.fold_left (fun acc s -> acc + s.sbytes) 0 t.segs in
  if seg_total <> t.reserved then fail "Allocator: reserved drift";
  (* Per segment: free + live block bytes = segment bytes. *)
  List.iter
    (fun s ->
      let live_in_seg =
        Hashtbl.fold
          (fun _ b acc -> if b.seg_base = s.sbase then acc + b.bytes else acc)
          t.live 0
      in
      if live_in_seg + Freelist.total s.free <> s.sbytes then
        fail "Allocator: segment 0x%x accounting drift" s.sbase)
    t.segs;
  (* Blocks live inside their segment bounds. *)
  Hashtbl.iter
    (fun _ b ->
      if b.base < b.seg_base || b.base + b.bytes > b.seg_base + b.seg_bytes then
        fail "Allocator: block escapes segment")
    t.live
