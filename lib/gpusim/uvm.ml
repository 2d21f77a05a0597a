module Imap = Map.Make (Int)

type stats = {
  mutable faults : int;
  mutable refaults : int;
  mutable migrated_bytes : int;
  mutable prefetched_bytes : int;
  mutable prefetch_calls : int;
  mutable evicted_pages : int;
  mutable fault_stall_us : float;
  mutable prefetch_us : float;
  mutable evict_us : float;
}

let fresh_stats () =
  {
    faults = 0;
    refaults = 0;
    migrated_bytes = 0;
    prefetched_bytes = 0;
    prefetch_calls = 0;
    evicted_pages = 0;
    fault_stall_us = 0.0;
    prefetch_us = 0.0;
    evict_us = 0.0;
  }

(* Per-page state bits. *)
let bit_resident = 1
let bit_pinned = 2
let bit_was_resident = 4

type range = {
  base : int;
  bytes : int;
  npages : int;
  state : Bytes.t; (* one state byte per page *)
  stamp : int array; (* LRU stamp per page *)
}

type t = {
  arch : Arch.t;
  clock : Clock.t;
  cap_pages : int;
  mutable ranges : range Imap.t; (* keyed by base *)
  mutable resident : int; (* resident page count *)
  mutable tick : int; (* global LRU counter *)
  lru : (range * int * int) Queue.t; (* (range, page_idx, stamp) — lazy entries *)
  st : stats;
}

let create arch clock ~capacity =
  let cap_pages = capacity / arch.Arch.uvm_page_bytes in
  if cap_pages < 1 then invalid_arg "Uvm.create: capacity below one page";
  {
    arch;
    clock;
    cap_pages;
    ranges = Imap.empty;
    resident = 0;
    tick = 0;
    lru = Queue.create ();
    st = fresh_stats ();
  }

let page_bytes t = t.arch.Arch.uvm_page_bytes
let capacity_pages t = t.cap_pages
let resident_pages t = t.resident
let stats t = t.st

let reset_stats t =
  let s = t.st in
  s.faults <- 0;
  s.refaults <- 0;
  s.migrated_bytes <- 0;
  s.prefetched_bytes <- 0;
  s.prefetch_calls <- 0;
  s.evicted_pages <- 0;
  s.fault_stall_us <- 0.0;
  s.prefetch_us <- 0.0;
  s.evict_us <- 0.0

let find_range t addr =
  match Imap.find_last_opt (fun b -> b <= addr) t.ranges with
  | Some (_, r) when addr < r.base + r.bytes -> Some r
  | _ -> None

let is_managed t addr = Option.is_some (find_range t addr)

let register_range t ~base ~bytes =
  if bytes <= 0 then invalid_arg "Uvm.register_range: non-positive size";
  let last = base + bytes - 1 in
  if is_managed t base || is_managed t last then
    invalid_arg "Uvm.register_range: overlapping range";
  let npages = (bytes + page_bytes t - 1) / page_bytes t in
  let r = { base; bytes; npages; state = Bytes.make npages '\000'; stamp = Array.make npages 0 } in
  t.ranges <- Imap.add base r t.ranges

let unregister_range t ~base =
  match Imap.find_opt base t.ranges with
  | None -> invalid_arg "Uvm.unregister_range: unknown base"
  | Some r ->
      for i = 0 to r.npages - 1 do
        if Char.code (Bytes.get r.state i) land bit_resident <> 0 then
          t.resident <- t.resident - 1
      done;
      t.ranges <- Imap.remove base t.ranges

let get_state r i = Char.code (Bytes.get r.state i)
let set_state r i v = Bytes.set r.state i (Char.chr v)
let is_resident r i = get_state r i land bit_resident <> 0
let is_pinned r i = get_state r i land bit_pinned <> 0

let touch_stamp t r i =
  t.tick <- t.tick + 1;
  r.stamp.(i) <- t.tick;
  Queue.push (r, i, t.tick) t.lru

(* Evict one unpinned LRU page; returns false if nothing evictable. *)
let rec evict_one t ~forced =
  match Queue.take_opt t.lru with
  | None -> if forced then evict_scan t else false
  | Some (r, i, stamp) ->
      if r.stamp.(i) = stamp && is_resident r i && (not (is_pinned r i)) && Imap.mem r.base t.ranges
      then begin
        set_state r i (get_state r i land lnot bit_resident);
        t.resident <- t.resident - 1;
        t.st.evicted_pages <- t.st.evicted_pages + 1;
        let d = Costmodel.uvm_evict_time_us t.arch ~pages:1 in
        t.st.evict_us <- t.st.evict_us +. d;
        Clock.advance_us t.clock d;
        true
      end
      else evict_one t ~forced

(* Last resort when the lazy queue is exhausted: linear scan, evicting even
   pinned pages (mirrors the driver's behaviour when preferred-location
   advice cannot be honoured). *)
and evict_scan t =
  let victim = ref None in
  Imap.iter
    (fun _ r ->
      for i = 0 to r.npages - 1 do
        if is_resident r i then
          match !victim with
          | Some (_, _, s) when s <= r.stamp.(i) -> ()
          | _ -> victim := Some (r, i, r.stamp.(i))
      done)
    t.ranges;
  match !victim with
  | None -> false
  | Some (r, i, _) ->
      set_state r i (get_state r i land lnot bit_resident);
      t.resident <- t.resident - 1;
      t.st.evicted_pages <- t.st.evicted_pages + 1;
      let d = Costmodel.uvm_evict_time_us t.arch ~pages:1 in
      t.st.evict_us <- t.st.evict_us +. d;
      Clock.advance_us t.clock d;
      true

let ensure_free_page t =
  if t.resident >= t.cap_pages then ignore (evict_one t ~forced:true)

(* Page index span of [base, base+bytes) clipped to the range. *)
let span_indices t r ~base ~bytes =
  let pbytes = page_bytes t in
  let lo = max r.base base and hi = min (r.base + r.bytes) (base + bytes) in
  if hi <= lo then None
  else Some ((lo - r.base) / pbytes, (hi - 1 - r.base) / pbytes)

let touch t ~base ~bytes ~faulted_pages =
  match find_range t base with
  | None -> ()
  | Some r -> (
      match span_indices t r ~base ~bytes with
      | None -> ()
      | Some (i0, i1) ->
          let faults = ref 0 in
          for i = i0 to i1 do
            if not (is_resident r i) then begin
              ensure_free_page t;
              let s = get_state r i in
              if s land bit_was_resident <> 0 then t.st.refaults <- t.st.refaults + 1;
              set_state r i (s lor bit_resident lor bit_was_resident);
              t.resident <- t.resident + 1;
              incr faults
            end;
            touch_stamp t r i
          done;
          if !faults > 0 then begin
            t.st.faults <- t.st.faults + !faults;
            t.st.migrated_bytes <- t.st.migrated_bytes + (!faults * page_bytes t);
            faulted_pages := !faulted_pages + !faults;
            let d = Costmodel.uvm_fault_time_us t.arch ~pages:!faults in
            t.st.fault_stall_us <- t.st.fault_stall_us +. d;
            Clock.advance_us t.clock d
          end)

let prefetch t ~base ~bytes =
  match find_range t base with
  | None -> ()
  | Some r -> (
      match span_indices t r ~base ~bytes with
      | None -> ()
      | Some (i0, i1) ->
          let moved = ref 0 in
          for i = i0 to i1 do
            if not (is_resident r i) then begin
              ensure_free_page t;
              set_state r i (get_state r i lor bit_resident lor bit_was_resident);
              t.resident <- t.resident + 1;
              incr moved
            end;
            touch_stamp t r i
          done;
          t.st.prefetch_calls <- t.st.prefetch_calls + 1;
          let bytes_moved = !moved * page_bytes t in
          t.st.prefetched_bytes <- t.st.prefetched_bytes + bytes_moved;
          let d = Costmodel.uvm_prefetch_time_us t.arch ~bytes:bytes_moved in
          t.st.prefetch_us <- t.st.prefetch_us +. d;
          Clock.advance_us t.clock d)

let evict_range t ~base ~bytes =
  match find_range t base with
  | None -> ()
  | Some r -> (
      match span_indices t r ~base ~bytes with
      | None -> ()
      | Some (i0, i1) ->
          let evicted = ref 0 in
          for i = i0 to i1 do
            if is_resident r i && not (is_pinned r i) then begin
              set_state r i (get_state r i land lnot bit_resident);
              t.resident <- t.resident - 1;
              incr evicted
            end
          done;
          if !evicted > 0 then begin
            t.st.evicted_pages <- t.st.evicted_pages + !evicted;
            let d = Costmodel.uvm_evict_time_us t.arch ~pages:!evicted in
            t.st.evict_us <- t.st.evict_us +. d;
            Clock.advance_us t.clock d
          end)

let set_pin_bit t ~base ~bytes ~on =
  match find_range t base with
  | None -> ()
  | Some r -> (
      match span_indices t r ~base ~bytes with
      | None -> ()
      | Some (i0, i1) ->
          for i = i0 to i1 do
            let s = get_state r i in
            set_state r i (if on then s lor bit_pinned else s land lnot bit_pinned)
          done)

let pin t ~base ~bytes = set_pin_bit t ~base ~bytes ~on:true
let unpin t ~base ~bytes = set_pin_bit t ~base ~bytes ~on:false

let check_invariants t =
  let count = ref 0 in
  Imap.iter
    (fun _ r ->
      for i = 0 to r.npages - 1 do
        if is_resident r i then incr count
      done)
    t.ranges;
  if !count <> t.resident then
    Format.kasprintf failwith "Uvm: residency drift (%d counted, %d recorded)"
      !count t.resident;
  if t.resident > t.cap_pages then
    Format.kasprintf failwith "Uvm: capacity exceeded (%d > %d)" t.resident
      t.cap_pages
