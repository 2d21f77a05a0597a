type access = {
  addr : int;
  size : int;
  write : bool;
  warp_id : int;
  pc : int;
  weight : int;
}

let access_size = 4

(* ---- Chunked generation into packed columnar batches ----------------- *)

(* Fixed shard size, deliberately independent of how many domains will run
   the chunks: the chunk layout — and therefore every derived RNG stream —
   is a function of the kernel alone, which is what makes output identical
   for any domain count. *)
let chunk_records = 1024

(* Struct-of-arrays columns.  [Bigarray.int] elements read and write as
   unboxed native [int]s (unlike the int64/int32 kinds, which box on every
   access), so the hot loops below never allocate per record.  Sizes fit in
   16 bits (fault injection caps them at [1 lsl 11]) and write flags in one
   byte. *)
type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type size_col = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type flag_col = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let alloc_int_col n : int_col = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let alloc_size_col n : size_col =
  Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n
let alloc_flag_col n : flag_col =
  Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

type cols = {
  addrs : int_col;
  sizes : size_col;
  warps : int_col;
  weights : int_col;
  writes : flag_col;  (* one 0/1 element per record *)
}

type chunk_spec = {
  cs_region : Kernel.region;
  cs_region_idx : int;
  cs_pc : int;
  cs_n : int;  (* sampled records in the whole region *)
  cs_chunk : int;
  cs_start : int;  (* first record index of this chunk *)
  cs_len : int;
}

(* A descriptor's records follow from its spec in closed form, so it
   carries no columns; [cols] builds them on demand. *)
type dense = cols
type shape = Dense of dense | Descriptor of { spec : chunk_spec; warp_size : int }

type batch = {
  b_region : int;
  b_chunk : int;
  b_pc : int;
  b_len : int;
  b_shape : shape;
}

let batch_len b = b.b_len

(* Three native-int columns, a 16-bit size and an 8-bit write flag. *)
let record_bytes = (3 * (Sys.word_size / 8)) + 2 + 1

let batch_bytes b =
  match b.b_shape with Dense _ -> b.b_len * record_bytes | Descriptor _ -> 0

(* ---- The sampling formulas ------------------------------------------ *)

let span (r : Kernel.region) = max 1 (r.Kernel.bytes - access_size)
let step stride = max access_size stride

(* Record [i] of [n] weighs [bw = accesses / n], plus one for the first
   [extra = accesses mod n] records, so a region's weights sum to its
   exact access count.  [Int.min]/[Int.max] compare unboxed; the
   polymorphic ones would call the generic compare. *)
let weights ~bw ~extra i j = (bw * (j - i)) + Int.max 0 (Int.min j extra - i)

let weight_range spec i j =
  let a = spec.cs_region.Kernel.accesses and n = spec.cs_n in
  weights ~bw:(a / n) ~extra:(a mod n) i j

(* ---- The record stepper ---------------------------------------------- *)

(* The formulas evaluated once, at record [first], then stepped record by
   record by exact integer arithmetic, so a stepper divides when it is
   made, not per record.  [q] is record [i]'s address offset.  [Sequential]
   keeps [span * i / n] as quotient [q] and remainder [rem]: each record
   adds [span / n] to [q] and [span mod n] to [rem], carrying one into [q]
   when [rem] reaches [n].  [Strided] keeps [s * i mod span]: both the
   offset and [s mod span] are below [span], so one subtraction at
   [wrap = span] wraps their sum.  A [Random] region's offsets are drawn,
   not stepped, so its [q] stays 0.  Record [i]'s warp is [x / warp_size]
   for [x = i * warp_size mod warp_wrap]: [x] grows by [warp_size <=
   warp_wrap] per record, so one subtraction wraps it, and the warp [w]
   grows by one; at a wrap the new [x] is below [warp_size], so the warp
   restarts at 0.  Record [i] weighs [bw], plus one below [extra]. *)
type stepper = {
  mutable i : int;  (* the record the fields below describe *)
  mutable q : int;
  mutable rem : int;
  mutable dq : int;
  mutable dr : int;
  mutable n : int;
  mutable wrap : int;
  mutable x : int;
  mutable w : int;
  mutable warp_size : int;
  mutable warp_wrap : int;
  mutable base : int;
  mutable bw : int;
  mutable extra : int;
}

let stepper () =
  {
    i = 0;
    q = 0;
    rem = 0;
    dq = 0;
    dr = 0;
    n = 1;
    wrap = max_int;
    x = 0;
    w = 0;
    warp_size = 1;
    warp_wrap = 1;
    base = 0;
    bw = 0;
    extra = 0;
  }

(* Point [s] at record [first] of [spec]'s region. *)
let seed s ~warp_size spec ~first =
  let r = spec.cs_region in
  let n = spec.cs_n and span = span r in
  s.i <- first;
  s.n <- n;
  s.q <- 0;
  s.rem <- 0;
  s.dq <- 0;
  s.dr <- 0;
  s.wrap <- max_int;
  (match r.Kernel.pattern with
  | Kernel.Sequential ->
      s.q <- span * first / n;
      s.rem <- span * first mod n;
      s.dq <- span / n;
      s.dr <- span mod n
  | Kernel.Strided stride ->
      let st = step stride in
      s.q <- st * first mod span;
      s.dq <- st mod span;
      s.wrap <- span
  | Kernel.Random -> ());
  let warp_wrap = Int.max warp_size (span / access_size) in
  s.warp_size <- warp_size;
  s.warp_wrap <- warp_wrap;
  s.x <- first * warp_size mod warp_wrap;
  s.w <- s.x / warp_size;
  s.base <- r.Kernel.base;
  s.bw <- r.Kernel.accesses / n;
  s.extra <- r.Kernel.accesses mod n

let step_addr s = s.base + s.q
let step_weight s = s.bw + if s.i < s.extra then 1 else 0

let advance s =
  s.i <- s.i + 1;
  s.q <- s.q + s.dq;
  s.rem <- s.rem + s.dr;
  if s.rem >= s.n then begin
    s.q <- s.q + 1;
    s.rem <- s.rem - s.n
  end;
  if s.q >= s.wrap then s.q <- s.q - s.wrap;
  s.x <- s.x + s.warp_size;
  if s.x >= s.warp_wrap then begin
    s.x <- s.x - s.warp_wrap;
    s.w <- 0
  end
  else s.w <- s.w + 1

(* Records [pos] to [pos + len - 1] of the chunk as fresh columns.  A
   [Random] chunk draws its addresses from the chunk-keyed stream, so the
   values do not depend on which domain — or in which order — chunks
   execute; it is only ever filled whole, from its first record.  Every
   other column, and a closed form's addresses, come from the stepper. *)
let fill_cols ?rng ~warp_size spec ~pos ~len =
  let r = spec.cs_region in
  let addrs = alloc_int_col len
  and sizes = alloc_size_col len
  and warps = alloc_int_col len
  and weights = alloc_int_col len
  and writes = alloc_flag_col len in
  Bigarray.Array1.fill sizes access_size;
  Bigarray.Array1.fill writes (if r.Kernel.write then 1 else 0);
  let closed =
    match r.Kernel.pattern with
    | Kernel.Sequential | Kernel.Strided _ -> true
    | Kernel.Random ->
        let rng =
          match rng with
          | Some g -> g
          | None -> invalid_arg "Warp: a Random region needs a fill stream"
        in
        let base = r.Kernel.base and span = span r in
        for j = 0 to len - 1 do
          Bigarray.Array1.unsafe_set addrs j (base + Pasta_util.Det_rng.int rng span)
        done;
        false
  in
  let s = stepper () in
  seed s ~warp_size spec ~first:(spec.cs_start + pos);
  for j = 0 to len - 1 do
    if closed then Bigarray.Array1.unsafe_set addrs j (step_addr s);
    Bigarray.Array1.unsafe_set warps j s.w;
    Bigarray.Array1.unsafe_set weights j (step_weight s);
    advance s
  done;
  { addrs; sizes; warps; weights; writes }

let cols b =
  match b.b_shape with
  | Dense c -> c
  | Descriptor { spec; warp_size } -> fill_cols ~warp_size spec ~pos:0 ~len:spec.cs_len

let batch_weight b =
  match b.b_shape with
  | Descriptor { spec; _ } -> weight_range spec spec.cs_start (spec.cs_start + spec.cs_len)
  | Dense c ->
      let s = ref 0 in
      for i = 0 to b.b_len - 1 do
        s := !s + Bigarray.Array1.unsafe_get c.weights i
      done;
      !s

let check_header ~who ~region ~chunk ~pc =
  if region < 0 || chunk < 0 || pc < 0 then
    invalid_arg (who ^ ": negative header field")

let batch_of_columns ~region ~chunk ~pc ~(addrs : int_col) ~(sizes : size_col)
    ~(warps : int_col) ~(weights : int_col) ~(writes : flag_col) =
  let len = Bigarray.Array1.dim addrs in
  if
    Bigarray.Array1.dim sizes <> len
    || Bigarray.Array1.dim warps <> len
    || Bigarray.Array1.dim weights <> len
    || Bigarray.Array1.dim writes <> len
  then invalid_arg "Warp.batch_of_columns: column lengths differ";
  check_header ~who:"Warp.batch_of_columns" ~region ~chunk ~pc;
  let c = { addrs; sizes; warps; weights; writes } in
  { b_region = region; b_chunk = chunk; b_pc = pc; b_len = len; b_shape = Dense c }

let batch_of_arrays ~region ~chunk ~pc ~addrs ~sizes ~warps ~weights ~writes =
  let len = Array.length addrs in
  if
    Array.length sizes <> len
    || Array.length warps <> len
    || Array.length weights <> len
    || Bytes.length writes <> len
  then invalid_arg "Warp.batch_of_arrays: array lengths differ";
  check_header ~who:"Warp.batch_of_arrays" ~region ~chunk ~pc;
  let c =
    {
      addrs = alloc_int_col len;
      sizes = alloc_size_col len;
      warps = alloc_int_col len;
      weights = alloc_int_col len;
      writes = alloc_flag_col len;
    }
  in
  for i = 0 to len - 1 do
    c.addrs.{i} <- addrs.(i);
    c.sizes.{i} <- sizes.(i);
    c.warps.{i} <- warps.(i);
    c.weights.{i} <- weights.(i);
    c.writes.{i} <- (if Bytes.get writes i <> '\000' then 1 else 0)
  done;
  { b_region = region; b_chunk = chunk; b_pc = pc; b_len = len; b_shape = Dense c }

(* PCs match the SASS listing: region [ri]'s access instruction is the
   second of its access block, after a 3-instruction prologue. *)
let region_pc ri = (3 + (2 * ri) + 1) * 16

let plan ~max_records_per_region k =
  let specs = ref [] in
  List.iteri
    (fun ri (r : Kernel.region) ->
      if r.accesses > 0 then begin
        let pc = region_pc ri in
        let n = min r.accesses max_records_per_region in
        let chunks = (n + chunk_records - 1) / chunk_records in
        for c = 0 to chunks - 1 do
          let start = c * chunk_records in
          let len = min chunk_records (n - start) in
          specs :=
            {
              cs_region = r;
              cs_region_idx = ri;
              cs_pc = pc;
              cs_n = n;
              cs_chunk = c;
              cs_start = start;
              cs_len = len;
            }
            :: !specs
        done
      end)
    k.Kernel.regions;
  Array.of_list (List.rev !specs)

let header spec shape =
  {
    b_region = spec.cs_region_idx;
    b_chunk = spec.cs_chunk;
    b_pc = spec.cs_pc;
    b_len = spec.cs_len;
    b_shape = shape;
  }

let fill_chunk ~rng ~warp_size spec =
  header spec (Dense (fill_cols ~rng ~warp_size spec ~pos:0 ~len:spec.cs_len))

(* ---- Descriptors ---------------------------------------------------- *)

(* Bounds on a descriptor's parts.  They keep every product the fill and
   the walker below form ([span * i], [s * i], [d * n], [i * warp_size])
   under 2^61, far above any simulated region: extents and strides up to
   256 GiB, 4 Mi sampled records per region, 56-bit addresses. *)
let max_desc_bytes = 1 lsl 38
let max_desc_records = 1 lsl 22
let max_desc_base = 1 lsl 56
let max_warp_size = 1024

(* [Some why] when a region sampled into [n] records has no descriptor,
   [None] when it has one.  Besides the bounds: the Devagg walker counts
   2 MiB blocks as [addr / block], which names contiguous address
   intervals only for non-negative addresses. *)
let no_closed_form (r : Kernel.region) n =
  if r.Kernel.base < 0 || r.Kernel.base > max_desc_base then Some "base out of range"
  else if r.Kernel.bytes < 0 || r.Kernel.bytes > max_desc_bytes then Some "extent out of range"
  else if n < 1 || n > max_desc_records then Some "record count out of range"
  else
    match r.Kernel.pattern with
    | Kernel.Sequential -> None
    | Kernel.Strided s when s < 0 || s > max_desc_bytes -> Some "stride out of range"
    | Kernel.Strided _ -> None
    | Kernel.Random -> Some "a Random region has no closed form"

let closed_form spec = no_closed_form spec.cs_region spec.cs_n = None

let describe ~warp_size spec =
  if not (closed_form spec) then invalid_arg "Warp.describe: no closed form";
  if warp_size < 1 || warp_size > max_warp_size then invalid_arg "Warp.describe: warp size";
  header spec (Descriptor { spec; warp_size })

let descriptor ~region ~chunk ~pc ~len ~warp_size ~n (r : Kernel.region) =
  let fail fmt = Printf.ksprintf (fun s -> Error ("descriptor: " ^ s)) fmt in
  match no_closed_form r n with
  | Some why -> fail "%s" why
  | None ->
      if warp_size < 1 || warp_size > max_warp_size then fail "warp size %d" warp_size
      else if r.Kernel.accesses < n then fail "%d records for %d accesses" n r.Kernel.accesses
      else if region < 0 || pc <> region_pc region then fail "pc %d for region %d" pc region
      else if chunk < 0 || chunk > (n - 1) / chunk_records then
        fail "chunk %d of %d records" chunk n
      else
        let start = chunk * chunk_records in
        if len <> min chunk_records (n - start) then
          fail "length %d for records %d of %d" len start n
        else
          let spec =
            {
              cs_region = r;
              cs_region_idx = region;
              cs_pc = pc;
              cs_n = n;
              cs_chunk = chunk;
              cs_start = start;
              cs_len = len;
            }
          in
          Ok (header spec (Descriptor { spec; warp_size }))

let ceil_div a b = (a + b - 1) / b

(* The walker inverts the address formulas of [fill_cols].  The chunk
   splits into address-monotone segments: all of a [Sequential] chunk,
   each stride wrap of a [Strided] one.  Within a segment, a run starts
   at record [i] and extends to the first record at or past the limit
   the consumer gives for [i]'s address, found by integer division. *)
let walk spec ~limit ~run =
  let r = spec.cs_region in
  let base = r.Kernel.base and span = span r and n = spec.cs_n in
  let bw = r.Kernel.accesses / n and extra = r.Kernel.accesses mod n in
  let stop = spec.cs_start + spec.cs_len in
  match r.Kernel.pattern with
  | Kernel.Sequential ->
      (* Record [i] is at [base + span*i/n]: the first record at or past
         [base + d] (for [0 < d <= span]) is [ceil (d*n / span)]. *)
      let i = ref spec.cs_start in
      while !i < stop do
        let addr = base + (span * !i / n) in
        let d = Int.min (limit addr - base) span in
        let j = Int.min stop (ceil_div (d * n) span) in
        run addr (weights ~bw ~extra !i j);
        i := j
      done
  | Kernel.Strided stride ->
      (* Record [i] is at [base + s*i mod span].  A segment starting at
         [i0] with offset [off0] holds [(span-1-off0)/s + 1] records at
         offsets [off0 + s*k]. *)
      let s = step stride in
      let i = ref spec.cs_start in
      while !i < stop do
        let i0 = !i and off0 = s * !i mod span in
        let seg_stop = Int.min stop (i0 + ((span - 1 - off0) / s) + 1) in
        while !i < seg_stop do
          let addr = base + off0 + (s * (!i - i0)) in
          let d = Int.min (limit addr - base) span in
          let j = Int.min seg_stop (i0 + ceil_div (d - off0) s) in
          run addr (weights ~bw ~extra !i j);
          i := j
        done
      done
  | Kernel.Random -> invalid_arg "Warp.walk: no closed form"

let check_range ~who b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > b.b_len then invalid_arg who

let sub b ~pos ~len =
  check_range ~who:"Warp.sub" b ~pos ~len;
  if pos = 0 && len = b.b_len then b
  else
    match b.b_shape with
    | Descriptor { spec; warp_size } ->
        { b with b_len = len; b_shape = Dense (fill_cols ~warp_size spec ~pos ~len) }
    | Dense c ->
        (* [Array1.sub] is a zero-copy view of the same buffer. *)
        let view col = Bigarray.Array1.sub col pos len in
        {
          b with
          b_len = len;
          b_shape =
            Dense
              {
                addrs = view c.addrs;
                sizes = view c.sizes;
                warps = view c.warps;
                weights = view c.weights;
                writes = view c.writes;
              };
        }

let no_cols =
  {
    addrs = alloc_int_col 0;
    sizes = alloc_size_col 0;
    warps = alloc_int_col 0;
    weights = alloc_int_col 0;
    writes = alloc_flag_col 0;
  }

let empty = { b_region = 0; b_chunk = 0; b_pc = 0; b_len = 0; b_shape = Dense no_cols }

(* ---- A kernel's pieces, as one flat table ----------------------------- *)

type pieces = {
  mutable p_batch : batch array;
  mutable p_pos : int array;
  mutable p_len : int array;
  mutable p_time : float array;
  mutable p_count : int;
  mutable p_stamped : int;
}

let pieces () =
  { p_batch = [||]; p_pos = [||]; p_len = [||]; p_time = [||]; p_count = 0; p_stamped = 0 }

let add_piece p b ~pos ~len =
  check_range ~who:"Warp.add_piece" b ~pos ~len;
  let i = p.p_count in
  if i = Array.length p.p_batch then begin
    let grow a fill = Array.append a (Array.make (Int.max 16 i) fill) in
    p.p_batch <- grow p.p_batch empty;
    p.p_pos <- grow p.p_pos 0;
    p.p_len <- grow p.p_len 0;
    p.p_time <- grow p.p_time 0.0
  end;
  Array.unsafe_set p.p_batch i b;
  Array.unsafe_set p.p_pos i pos;
  Array.unsafe_set p.p_len i len;
  p.p_count <- i + 1

let stamp_pieces p time_us =
  Array.fill p.p_time p.p_stamped (p.p_count - p.p_stamped) time_us;
  p.p_stamped <- p.p_count

let clear_pieces p =
  Array.fill p.p_batch 0 p.p_count empty;
  p.p_count <- 0;
  p.p_stamped <- 0

let hand_off p f =
  if p.p_count > 0 then Fun.protect ~finally:(fun () -> clear_pieces p) (fun () -> f p)

(* ---- Reading a piece's records one at a time ------------------------- *)

(* Where the next record comes from: a dense batch's columns at [at], or
   a descriptor's stepper.  A cursor is re-pointed at piece after piece,
   so reading one allocates nothing. *)
type source = {
  mutable dense : bool;
  mutable src_cols : cols;
  mutable at : int;
  steps : stepper;
}

type cursor = {
  mutable c_addr : int;
  mutable c_size : int;
  mutable c_write : bool;
  mutable c_warp : int;
  mutable c_weight : int;
  mutable c_pc : int;
  mutable c_left : int;
  c_src : source;
}

let cursor () =
  {
    c_addr = 0;
    c_size = 0;
    c_write = false;
    c_warp = 0;
    c_weight = 0;
    c_pc = 0;
    c_left = 0;
    c_src = { dense = true; src_cols = no_cols; at = 0; steps = stepper () };
  }

let seek c b ~pos ~len =
  check_range ~who:"Warp.seek" b ~pos ~len;
  let src = c.c_src in
  c.c_pc <- b.b_pc;
  c.c_left <- len;
  match b.b_shape with
  | Dense cols ->
      src.dense <- true;
      src.src_cols <- cols;
      src.at <- pos
  | Descriptor { spec; warp_size } ->
      src.dense <- false;
      seed src.steps ~warp_size spec ~first:(spec.cs_start + pos);
      c.c_size <- access_size;
      c.c_write <- spec.cs_region.Kernel.write

(* [seek] checked the records' bounds, and [c_left] keeps the reads
   inside them, so the columns are read unchecked. *)
let next c =
  if c.c_left <= 0 then invalid_arg "Warp.next: past the sought records";
  c.c_left <- c.c_left - 1;
  let src = c.c_src in
  if src.dense then begin
    let i = src.at and cols = src.src_cols in
    c.c_addr <- Bigarray.Array1.unsafe_get cols.addrs i;
    c.c_size <- Bigarray.Array1.unsafe_get cols.sizes i;
    c.c_write <- Bigarray.Array1.unsafe_get cols.writes i <> 0;
    c.c_warp <- Bigarray.Array1.unsafe_get cols.warps i;
    c.c_weight <- Bigarray.Array1.unsafe_get cols.weights i;
    src.at <- i + 1
  end
  else begin
    let s = src.steps in
    c.c_addr <- step_addr s;
    c.c_warp <- s.w;
    c.c_weight <- step_weight s;
    advance s
  end

(* ---- A channel's fill points ------------------------------------------- *)

let split_weight b ~count ~cap ~full =
  match b.b_shape with
  | Dense c ->
      let count = ref count in
      for i = 0 to b.b_len - 1 do
        count := !count + Bigarray.Array1.unsafe_get c.weights i;
        if !count >= cap then begin
          full (i + 1) !count;
          count := 0
        end
      done;
      !count
  | Descriptor { spec; _ } ->
      (* Records below [extra] weigh [bw + 1], the rest [bw >= 1] (a
         descriptor has [n <= accesses]).  From record [i], the fewest
         records that bring the count to [cap] take the heavy ones first,
         then light ones, each count found by one division. *)
      let a = spec.cs_region.Kernel.accesses and n = spec.cs_n in
      let bw = a / n and extra = a mod n in
      let first = spec.cs_start in
      let stop = first + spec.cs_len in
      let rec from i count =
        let need = Int.max 1 (cap - count) in
        let heavy = Int.max 0 (extra - i) in
        let j =
          if heavy * (bw + 1) >= need then i + ceil_div need (bw + 1)
          else i + heavy + ceil_div (need - (heavy * (bw + 1))) bw
        in
        if j <= stop then begin
          full (j - first) (count + weights ~bw ~extra i j);
          from j 0
        end
        else count + weights ~bw ~extra i stop
      in
      from first count

(* ---- Probabilistic thinning with inverse-probability reweighting ----- *)

let thin ~rng ~rate b =
  if rate >= 1.0 then b
  else begin
    let rate = Float.max rate 1e-6 in
    let c = cols b in
    let addrs = alloc_int_col b.b_len
    and sizes = alloc_size_col b.b_len
    and warps = alloc_int_col b.b_len
    and weights = alloc_int_col b.b_len
    and writes = alloc_flag_col b.b_len in
    let kept = ref 0 in
    for i = 0 to b.b_len - 1 do
      (* One keep draw per record, then (for kept records only) one
         randomized-rounding draw: weight'/rate is split into its integer
         part plus a Bernoulli on the fraction, so E[keep * weight'] equals
         the original weight exactly — estimates stay unbiased even though
         weights remain integers.  The draw order is fixed, so the kept set
         is a pure function of the stream [rng] was derived from.  Kept
         records compact straight into the output columns in one pass. *)
      if Pasta_util.Det_rng.prob rng rate then begin
        let scaled = float_of_int c.weights.{i} /. rate in
        let base = int_of_float (Float.floor scaled) in
        let frac = scaled -. float_of_int base in
        let w = base + if Pasta_util.Det_rng.prob rng frac then 1 else 0 in
        let j = !kept in
        addrs.{j} <- c.addrs.{i};
        sizes.{j} <- c.sizes.{i};
        warps.{j} <- c.warps.{i};
        weights.{j} <- w;
        writes.{j} <- c.writes.{i};
        incr kept
      end
    done;
    sub { b with b_shape = Dense { addrs; sizes; warps; weights; writes } } ~pos:0 ~len:!kept
  end
