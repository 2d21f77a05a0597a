module Imap = Map.Make (Int)

type alloc = { base : int; bytes : int; tag : string; managed : bool; seq : int }

module Freelist = Pasta_util.Freelist

type t = {
  va_base : int;
  cap : int;
  mutable allocs : alloc Imap.t; (* keyed by base *)
  mutable free_list : Freelist.t;
  mutable used : int;
  mutable next_seq : int;
}

let alignment = 512

let create ?(base = 0x7f00_0000_0000) ~capacity () =
  if capacity <= 0 then invalid_arg "Device_mem.create: capacity must be positive";
  {
    va_base = base;
    cap = capacity;
    allocs = Imap.empty;
    free_list = Freelist.singleton ~base ~bytes:capacity;
    used = 0;
    next_seq = 0;
  }

let used_bytes t = t.used
let live_count t = Imap.cardinal t.allocs

exception Out_of_memory of { requested : int; available : int }

let alloc t ?(tag = "device") ?(managed = false) bytes =
  if bytes < 0 then invalid_arg "Device_mem.alloc: negative size";
  let bytes = max alignment (Pasta_util.Bytesize.align_up bytes ~align:alignment) in
  let base, free_list =
    match Freelist.take_first_fit t.free_list ~bytes with
    | Some r -> r
    | None -> raise (Out_of_memory { requested = bytes; available = t.cap - t.used })
  in
  let a = { base; bytes; tag; managed; seq = t.next_seq } in
  t.free_list <- free_list;
  t.allocs <- Imap.add base a t.allocs;
  t.used <- t.used + bytes;
  t.next_seq <- t.next_seq + 1;
  a

let free t base =
  match Imap.find_opt base t.allocs with
  | None -> invalid_arg "Device_mem.free: not a live allocation base"
  | Some a ->
      t.allocs <- Imap.remove base t.allocs;
      t.free_list <- Freelist.insert t.free_list ~base:a.base ~bytes:a.bytes;
      t.used <- t.used - a.bytes;
      a

let find_containing t addr =
  match Imap.find_last_opt (fun b -> b <= addr) t.allocs with
  | Some (_, a) when addr < a.base + a.bytes -> Some a
  | _ -> None

let live t = List.map snd (Imap.bindings t.allocs)

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  (* Allocations sorted, non-overlapping, within range. *)
  let prev_end = ref t.va_base in
  Imap.iter
    (fun base a ->
      if base <> a.base then fail "key/base mismatch at 0x%x" base;
      if a.base < !prev_end then fail "overlap at 0x%x" a.base;
      if a.base + a.bytes > t.va_base + t.cap then fail "allocation beyond range";
      prev_end := a.base + a.bytes)
    t.allocs;
  (* Free list sorted, coalesced, disjoint from allocations. *)
  let rec check_holes = function
    | [] -> ()
    | (b, n) :: rest ->
        if n <= 0 then fail "empty hole at 0x%x" b;
        (match find_containing t b with
        | Some _ -> fail "hole overlaps allocation at 0x%x" b
        | None -> ());
        (match rest with
        | (b2, _) :: _ ->
            if b + n > b2 then fail "free list overlap";
            if b + n = b2 then fail "free list not coalesced at 0x%x" b
        | [] -> ());
        check_holes rest
  in
  check_holes (Freelist.holes t.free_list);
  (* Accounting. *)
  let alloc_total = Imap.fold (fun _ a acc -> acc + a.bytes) t.allocs 0 in
  let hole_total = Freelist.total t.free_list in
  if alloc_total <> t.used then fail "used accounting drift";
  if alloc_total + hole_total <> t.cap then fail "capacity accounting drift"
