module Imap = Map.Make (Int)

type obj =
  | Tensor of { ptr : int; bytes : int; tag : string }
  | Device_alloc of { ptr : int; bytes : int; managed : bool }
  | Unknown of int

let obj_key = function
  | Tensor { ptr; _ } | Device_alloc { ptr; _ } -> ptr
  | Unknown addr -> addr

let obj_bytes = function
  | Tensor { bytes; _ } | Device_alloc { bytes; _ } -> bytes
  | Unknown _ -> 0

let obj_label = function
  | Tensor { tag; _ } -> "tensor:" ^ tag
  | Device_alloc { managed; _ } -> if managed then "managed-alloc" else "device-alloc"
  | Unknown _ -> "unknown"

type alloc_rec = { a_bytes : int; managed : bool }
type tensor_rec = { t_bytes : int; tag : string }

(* Single-entry memoization of the last successful resolve: access streams
   have strong sequential locality (consecutive records usually fall in the
   same object), so one cached extent absorbs most lookups.  Any registry
   mutation invalidates the entry wholesale — a new tensor can overlay the
   memoized allocation, changing what the same address resolves to. *)
type memo = { m_base : int; m_limit : int; m_obj : obj }

type t = {
  mutable allocs : alloc_rec Imap.t;
  mutable tensors : tensor_rec Imap.t;
  mutable memo : memo option;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let create () =
  { allocs = Imap.empty; tensors = Imap.empty; memo = None; memo_hits = 0; memo_misses = 0 }

let on_alloc t ~addr ~bytes ~managed =
  t.memo <- None;
  t.allocs <- Imap.add addr { a_bytes = bytes; managed } t.allocs

let on_free t ~addr =
  t.memo <- None;
  t.allocs <- Imap.remove addr t.allocs

let on_tensor_alloc t ~ptr ~bytes ~tag =
  t.memo <- None;
  t.tensors <- Imap.add ptr { t_bytes = bytes; tag } t.tensors

let on_tensor_free t ~ptr =
  t.memo <- None;
  t.tensors <- Imap.remove ptr t.tensors

let find_covering map addr size_of =
  match Imap.find_last_opt (fun b -> b <= addr) map with
  | Some (base, r) when addr < base + size_of r -> Some (base, r)
  | _ -> None

let resolve_uncached tensors allocs addr =
  match find_covering tensors addr (fun r -> r.t_bytes) with
  | Some (ptr, r) -> Tensor { ptr; bytes = r.t_bytes; tag = r.tag }
  | None -> (
      match find_covering allocs addr (fun r -> r.a_bytes) with
      | Some (ptr, r) -> Device_alloc { ptr; bytes = r.a_bytes; managed = r.managed }
      | None -> Unknown addr)

let resolve t addr =
  match t.memo with
  | Some m when addr >= m.m_base && addr < m.m_limit ->
      t.memo_hits <- t.memo_hits + 1;
      m.m_obj
  | _ -> (
      t.memo_misses <- t.memo_misses + 1;
      match resolve_uncached t.tensors t.allocs addr with
      | Unknown _ as u -> u
      | obj ->
          let base = obj_key obj in
          t.memo <- Some { m_base = base; m_limit = base + obj_bytes obj; m_obj = obj };
          obj)

let memo_stats t = (t.memo_hits, t.memo_misses)

let next_base t addr =
  let next m = Option.fold ~none:max_int ~some:fst (Imap.find_first_opt (fun b -> b > addr) m) in
  Int.min (next t.tensors) (next t.allocs)

(* Immutable snapshot for worker domains, flattened to sorted arrays with
   the [obj] values prebuilt: the aggregation hot loop calls
   {!resolve_view} on every memo miss, and the persistent-map lookup both
   walks pointer-chasing tree nodes and allocates (a closure, options, a
   fresh [obj] record) per call — at alternating-object access streams
   that is several words for every record.  Binary search over flat base
   arrays returning a preallocated [obj] does the same resolution with
   zero allocation.  Snapshots are taken once per kernel flush, so the
   [O(objects)] build cost is noise. *)
type view = {
  vt_base : int array;  (* tensor base addrs, ascending *)
  vt_limit : int array;
  vt_obj : obj array;
  va_base : int array;  (* device allocs, ascending *)
  va_limit : int array;
  va_obj : obj array;
}

let flatten n fold =
  let base = Array.make n 0 and limit = Array.make n 0 in
  let objs = Array.make n (Unknown 0) in
  let i = ref 0 in
  fold (fun b lim o ->
      base.(!i) <- b;
      limit.(!i) <- lim;
      objs.(!i) <- o;
      incr i);
  (base, limit, objs)

let view t =
  let vt_base, vt_limit, vt_obj =
    flatten (Imap.cardinal t.tensors) (fun emit ->
        Imap.iter
          (fun ptr r -> emit ptr (ptr + r.t_bytes) (Tensor { ptr; bytes = r.t_bytes; tag = r.tag }))
          t.tensors)
  in
  let va_base, va_limit, va_obj =
    flatten (Imap.cardinal t.allocs) (fun emit ->
        Imap.iter
          (fun ptr r ->
            emit ptr (ptr + r.a_bytes)
              (Device_alloc { ptr; bytes = r.a_bytes; managed = r.managed }))
          t.allocs)
  in
  { vt_base; vt_limit; vt_obj; va_base; va_limit; va_obj }

(* Index of the last base [<= addr], or [-1]. *)
let find_le (base : int array) addr =
  let lo = ref 0 and hi = ref (Array.length base) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get base mid <= addr then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let resolve_view v addr =
  let ti = find_le v.vt_base addr in
  if ti >= 0 && addr < Array.unsafe_get v.vt_limit ti then Array.unsafe_get v.vt_obj ti
  else begin
    let ai = find_le v.va_base addr in
    if ai >= 0 && addr < Array.unsafe_get v.va_limit ai then Array.unsafe_get v.va_obj ai
    else Unknown addr
  end

let live_objects t = Imap.cardinal t.allocs + Imap.cardinal t.tensors
let live_allocs t = List.map (fun (b, r) -> (b, r.a_bytes)) (Imap.bindings t.allocs)
let map_bytes t = 16 * max 1 (live_objects t)
