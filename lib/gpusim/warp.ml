type access = {
  addr : int;
  size : int;
  write : bool;
  warp_id : int;
  pc : int;
  weight : int;
}

let access_size = 4

let region_records ~rng ~warp_size ~max_records (r : Kernel.region) ~pc ~f =
  if r.accesses = 0 then ()
  else begin
    let n = min r.accesses max_records in
    let base_weight = r.accesses / n and extra = r.accesses mod n in
    let span = max 1 (r.bytes - access_size) in
    for i = 0 to n - 1 do
      let offset =
        match r.pattern with
        | Kernel.Sequential ->
            (* Spread evenly so the samples cover the whole extent. *)
            span * i / n
        | Kernel.Strided stride ->
            let s = max access_size stride in
            s * i mod span
        | Kernel.Random -> Pasta_util.Det_rng.int rng span
      in
      let warp_id = i * warp_size mod max warp_size (span / access_size) / warp_size in
      f
        {
          addr = r.base + offset;
          size = access_size;
          write = r.write;
          warp_id;
          pc;
          weight = (base_weight + if i < extra then 1 else 0);
        }
    done
  end

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

type batch = {
  b_region : int;
  b_chunk : int;
  b_pc : int;
  b_len : int;
  addrs : int_col;
  sizes : size_col;
  warps : int_col;
  weights : int_col;
  writes : flag_col;  (* one 0/1 element per record *)
}

let batch_len b = b.b_len

let batch_bytes b =
  Bigarray.Array1.size_in_bytes b.addrs
  + Bigarray.Array1.size_in_bytes b.sizes
  + Bigarray.Array1.size_in_bytes b.warps
  + Bigarray.Array1.size_in_bytes b.weights
  + Bigarray.Array1.size_in_bytes b.writes

let batch_weight b =
  let s = ref 0 in
  for i = 0 to b.b_len - 1 do
    s := !s + Bigarray.Array1.unsafe_get b.weights i
  done;
  !s

let batch_get b i =
  {
    addr = b.addrs.{i};
    size = b.sizes.{i};
    write = b.writes.{i} <> 0;
    warp_id = b.warps.{i};
    pc = b.b_pc;
    weight = b.weights.{i};
  }

let iter_batch b ~f =
  (* Record-at-a-time consumers spend their life in this loop, so read
     the columns unchecked — [i] is bounded by [b_len], which every
     constructor checks against the column dims. *)
  for i = 0 to b.b_len - 1 do
    f
      {
        addr = Bigarray.Array1.unsafe_get b.addrs i;
        size = Bigarray.Array1.unsafe_get b.sizes i;
        write = Bigarray.Array1.unsafe_get b.writes i <> 0;
        warp_id = Bigarray.Array1.unsafe_get b.warps i;
        pc = b.b_pc;
        weight = Bigarray.Array1.unsafe_get b.weights i;
      }
  done

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
  {
    b_region = region;
    b_chunk = chunk;
    b_pc = pc;
    b_len = len;
    addrs;
    sizes;
    warps;
    weights;
    writes;
  }

let batch_of_arrays ~region ~chunk ~pc ~addrs ~sizes ~warps ~weights ~writes =
  let len = Array.length addrs in
  if
    Array.length sizes <> len
    || Array.length warps <> len
    || Array.length weights <> len
    || Bytes.length writes <> len
  then invalid_arg "Warp.batch_of_arrays: array lengths differ";
  check_header ~who:"Warp.batch_of_arrays" ~region ~chunk ~pc;
  let c_addrs = alloc_int_col len
  and c_sizes = alloc_size_col len
  and c_warps = alloc_int_col len
  and c_weights = alloc_int_col len
  and c_writes = alloc_flag_col len in
  for i = 0 to len - 1 do
    c_addrs.{i} <- addrs.(i);
    c_sizes.{i} <- sizes.(i);
    c_warps.{i} <- warps.(i);
    c_weights.{i} <- weights.(i);
    c_writes.{i} <- (if Bytes.get writes i <> '\000' then 1 else 0)
  done;
  {
    b_region = region;
    b_chunk = chunk;
    b_pc = pc;
    b_len = len;
    addrs = c_addrs;
    sizes = c_sizes;
    warps = c_warps;
    weights = c_weights;
    writes = c_writes;
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

let plan ~max_records_per_region k =
  let specs = ref [] in
  List.iteri
    (fun ri (r : Kernel.region) ->
      if r.accesses > 0 then begin
        let pc = (3 + (2 * ri) + 1) * 16 in
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

let fill_chunk ~rng ~warp_size spec =
  let r = spec.cs_region in
  let n = spec.cs_n and len = spec.cs_len in
  let base_weight = r.Kernel.accesses / n and extra = r.Kernel.accesses mod n in
  let span = max 1 (r.Kernel.bytes - access_size) in
  let addrs = alloc_int_col len
  and sizes = alloc_size_col len
  and warps = alloc_int_col len
  and weights = alloc_int_col len
  and writes = alloc_flag_col len in
  Bigarray.Array1.fill sizes access_size;
  Bigarray.Array1.fill writes (if r.Kernel.write then 1 else 0);
  for j = 0 to len - 1 do
    let i = spec.cs_start + j in
    (* Same sampling formulas as [region_records]; [Random] draws from the
       chunk-keyed stream so the values do not depend on which domain — or
       in which order — chunks execute.  Records land in the columns
       directly; no intermediate [access] values are built. *)
    let offset =
      match r.Kernel.pattern with
      | Kernel.Sequential -> span * i / n
      | Kernel.Strided stride ->
          let s = max access_size stride in
          s * i mod span
      | Kernel.Random -> Pasta_util.Det_rng.int rng span
    in
    Bigarray.Array1.unsafe_set addrs j (r.Kernel.base + offset);
    Bigarray.Array1.unsafe_set warps j
      (i * warp_size mod max warp_size (span / access_size) / warp_size);
    Bigarray.Array1.unsafe_set weights j (base_weight + if i < extra then 1 else 0)
  done;
  {
    b_region = spec.cs_region_idx;
    b_chunk = spec.cs_chunk;
    b_pc = spec.cs_pc;
    b_len = len;
    addrs;
    sizes;
    warps;
    weights;
    writes;
  }

let sub b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > b.b_len then invalid_arg "Warp.sub";
  if pos = 0 && len = b.b_len then b
  else
    (* [Array1.sub] is a zero-copy view of the same buffer. *)
    let view col = Bigarray.Array1.sub col pos len in
    {
      b with
      b_len = len;
      addrs = view b.addrs;
      sizes = view b.sizes;
      warps = view b.warps;
      weights = view b.weights;
      writes = view b.writes;
    }

(* ---- Probabilistic thinning with inverse-probability reweighting ----- *)

let thin ~rng ~rate b =
  if rate >= 1.0 then b
  else begin
    let rate = Float.max rate 1e-6 in
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
        let scaled = float_of_int b.weights.{i} /. rate in
        let base = int_of_float (Float.floor scaled) in
        let frac = scaled -. float_of_int base in
        let w = base + if Pasta_util.Det_rng.prob rng frac then 1 else 0 in
        let j = !kept in
        addrs.{j} <- b.addrs.{i};
        sizes.{j} <- b.sizes.{i};
        warps.{j} <- b.warps.{i};
        weights.{j} <- w;
        writes.{j} <- b.writes.{i};
        incr kept
      end
    done;
    sub { b with addrs; sizes; warps; weights; writes } ~pos:0 ~len:!kept
  end

let generate ~rng ~warp_size ~max_records_per_region k ~f =
  (* PCs must match the SASS listing: region i's access instruction is the
     second instruction of its access block, after a 3-instruction
     prologue. *)
  List.iteri
    (fun i r ->
      let pc = (3 + (2 * i) + 1) * 16 in
      region_records ~rng ~warp_size ~max_records:max_records_per_region r ~pc ~f)
    k.Kernel.regions;
  Kernel.total_accesses k
