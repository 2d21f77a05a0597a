(* The intra-kernel instrumentation pass.

   Tools historically saw a kernel as one opaque launch-to-end interval.
   This pass walks the same static SASS layout {!Sass.listing} emits and
   carves it into *regions* — prologue, one global-memory phase per
   kernel memory region, the shared-memory staging block, the
   barrier-delimited phase, the compute body, and the
   writeback/epilogue — then splits the kernel's wall time across them
   with cost-model weights.

   Two invariants carry the whole feature:

   - Region IDs are *stable*: a pure hash of (kernel name, static pc
     range).  The same kernel produces the same IDs in every run, every
     process, every replay, so per-region series can be joined across
     captures.

   - The split is *exact*: the per-region durations sum to the kernel's
     [duration_us] bit-for-bit, in any summation order.  Weights are
     mapped onto an integer grid first (the mantissa of the total), so
     each duration is an integer multiple of one power of two and
     floating-point addition never rounds. *)

type granularity = Off | Coarse | Fine

type timed = {
  t_id : int;  (* stable region id, see [region_id] *)
  t_label : string;
  t_start_pc : int;  (* first static pc of the region *)
  t_end_pc : int;  (* one past the last static pc *)
  t_mem_region : int;  (* kernel memory-region index, -1 = none *)
  t_start_us : float;
  t_time_us : float;
  t_bytes : int;  (* bytes the region moves, per the cost model *)
  t_flops : float;  (* flops the region executes *)
}

(* FNV-1a over the kernel name and the static pc range, masked
   non-negative.  Deliberately *not* seeded by grid id, stream, device or
   anything dynamic: the id must survive capture/replay and identify the
   same static code range across runs. *)
let mix h b = (h lxor (b land 0xff)) * 0x01000193 land 0x3FFFFFFFFFFFFFFF

(* The hash state after the kernel name, shared by all its spans. *)
let name_hash kernel_name =
  String.fold_left (fun h c -> mix h (Char.code c)) 0x811c9dc5 kernel_name

let span_id ~name_hash ~start_pc ~end_pc =
  let h = mix name_hash start_pc in
  let h = mix h (start_pc lsr 8) in
  let h = mix h (start_pc lsr 16) in
  let h = mix h end_pc in
  let h = mix h (end_pc lsr 8) in
  mix h (end_pc lsr 16) land max_int

let region_id ~kernel_name ~start_pc ~end_pc =
  span_id ~name_hash:(name_hash kernel_name) ~start_pc ~end_pc

(* --- exact partition ---------------------------------------------- *)

(* Split [total] across [weights], returning durations that sum to
   [total] *exactly* (bit-for-bit, in any summation order).

   The mantissa trick: write total = m * 2^e with m in [0.5, 1), and put
   units = m * 2^53 on an integer grid (an exact integer in
   [2^52, 2^53)).  Cumulative weight shares map to integer unit counts,
   clamped monotone with the last share pinned to [units]; every
   duration is then (integer units) * 2^(e-53).  All products are exact,
   partial sums are integer multiples of one power of two bounded by
   2^53, so no addition ever rounds and the telescoping sum returns
   [total] exactly. *)
let exact_partition ~total weights =
  let n = Array.length weights in
  if n = 0 then [||]
  else if (not (Float.is_finite total)) || total <= 0.0 then Array.make n 0.0
  else begin
    let wsum = Array.fold_left ( +. ) 0.0 weights in
    let weights, wsum =
      if Float.is_finite wsum && wsum > 0.0 then (weights, wsum)
      else (Array.make n 1.0, float_of_int n)
    in
    let m, e = Float.frexp total in
    let units = Int64.of_float (Float.ldexp m 53) in
    let scale = Float.ldexp 1.0 (e - 53) in
    let unitsf = Int64.to_float units in
    let cum = ref 0.0 in
    let prev = ref 0L in
    Array.mapi
      (fun i w ->
        cum := !cum +. w;
        let c =
          if i = n - 1 then units
          else begin
            let c = Int64.of_float (unitsf *. (!cum /. wsum)) in
            let c = if Int64.compare c !prev < 0 then !prev else c in
            if Int64.compare c units > 0 then units else c
          end
        in
        let u = Int64.sub c !prev in
        prev := c;
        Int64.to_float u *. scale)
      weights
  end

(* --- static span planning ----------------------------------------- *)

(* One planned span before timing: label, pc range, memory-region index,
   byte/flop attribution and a cost-model weight (us-flavoured, only
   ratios matter). *)
type span = {
  sp_label : string;
  sp_start_pc : int;
  sp_end_pc : int;
  sp_mem_region : int;
  sp_bytes : int;
  sp_flops : float;
  sp_weight : float;
}

let pc_step = 16

(* Mirrors the layout of {!Sass.listing}: 3-instruction prologue, two
   instructions per memory region, a 4-instruction shared staging block,
   one barrier, the compute body, then writeback + exit. *)
let plan_fine (arch : Arch.t) (k : Kernel.t) =
  let mem_us bytes = float_of_int bytes /. (arch.Arch.mem_bw_gbps *. 1.0e9) *. 1.0e6 in
  let compute_us = k.Kernel.flops /. (arch.Arch.fp32_tflops *. 1.0e12) *. 1.0e6 in
  let nregions = List.length k.Kernel.regions in
  let spans = ref [] in
  let push s = spans := s :: !spans in
  (* prologue: thread-index computation, charged half the launch overhead *)
  push
    {
      sp_label = "prologue";
      sp_start_pc = 0;
      sp_end_pc = 3 * pc_step;
      sp_mem_region = -1;
      sp_bytes = 0;
      sp_flops = 0.0;
      sp_weight = arch.Arch.launch_overhead_us /. 2.0;
    };
  List.iteri
    (fun i (r : Kernel.region) ->
      (* per the cost model, a region moves at least 4 bytes per access *)
      let bytes = max r.Kernel.bytes (4 * r.Kernel.accesses) in
      let start_pc = (3 + (2 * i)) * pc_step in
      push
        {
          sp_label =
            "gmem[" ^ string_of_int i ^ if r.Kernel.write then "].st" else "].ld";
          sp_start_pc = start_pc;
          sp_end_pc = start_pc + (2 * pc_step);
          sp_mem_region = i;
          sp_bytes = bytes;
          sp_flops = 0.0;
          sp_weight = mem_us bytes;
        })
    k.Kernel.regions;
  let pc = ref ((3 + (2 * nregions)) * pc_step) in
  if k.Kernel.shared_bytes > 0 then begin
    push
      {
        sp_label = "shared";
        sp_start_pc = !pc;
        sp_end_pc = !pc + (4 * pc_step);
        sp_mem_region = -1;
        sp_bytes = k.Kernel.shared_bytes;
        sp_flops = 0.0;
        sp_weight = mem_us k.Kernel.shared_bytes;
      };
    pc := !pc + (4 * pc_step)
  end;
  if k.Kernel.barriers > 0 then begin
    push
      {
        sp_label = "barrier";
        sp_start_pc = !pc;
        sp_end_pc = !pc + pc_step;
        sp_mem_region = -1;
        sp_bytes = 0;
        sp_flops = 0.0;
        sp_weight =
          (float_of_int k.Kernel.barriers *. 0.5)
          +. k.Kernel.prof.Kernel.barrier_stall_us;
      };
    pc := !pc + pc_step
  end;
  let body = Sass.static_size k - (!pc / pc_step) in
  (* writeback + exit trail the body *)
  let tail =
    1
    + (if List.exists (fun (r : Kernel.region) -> r.Kernel.write) k.Kernel.regions
       then 1
       else 0)
  in
  let body = max 1 (body - tail) in
  push
    {
      sp_label = "compute";
      sp_start_pc = !pc;
      sp_end_pc = !pc + (body * pc_step);
      sp_mem_region = -1;
      sp_bytes = 0;
      sp_flops = k.Kernel.flops;
      sp_weight = compute_us;
    };
  pc := !pc + (body * pc_step);
  push
    {
      sp_label = "epilogue";
      sp_start_pc = !pc;
      sp_end_pc = !pc + (tail * pc_step);
      sp_mem_region = -1;
      sp_bytes = 0;
      sp_flops = 0.0;
      sp_weight = arch.Arch.launch_overhead_us /. 2.0;
    };
  List.rev !spans

(* Coarse: prologue | body | epilogue, with the middle spans merged so
   the whole kernel is still covered and weights/bytes/flops conserved. *)
let plan_coarse arch k =
  match plan_fine arch k with
  | prologue :: rest ->
      let rec split acc = function
        | [ epilogue ] -> (List.rev acc, epilogue)
        | s :: tl -> split (s :: acc) tl
        | [] -> (List.rev acc, prologue)
      in
      let middle, epilogue = split [] rest in
      let body =
        match middle with
        | [] ->
            {
              sp_label = "body";
              sp_start_pc = prologue.sp_end_pc;
              sp_end_pc = epilogue.sp_start_pc;
              sp_mem_region = -1;
              sp_bytes = 0;
              sp_flops = 0.0;
              sp_weight = 0.0;
            }
        | first :: _ ->
            let last = List.nth middle (List.length middle - 1) in
            {
              sp_label = "body";
              sp_start_pc = first.sp_start_pc;
              sp_end_pc = last.sp_end_pc;
              sp_mem_region = -1;
              sp_bytes = List.fold_left (fun a s -> a + s.sp_bytes) 0 middle;
              sp_flops = List.fold_left (fun a s -> a +. s.sp_flops) 0.0 middle;
              sp_weight = List.fold_left (fun a s -> a +. s.sp_weight) 0.0 middle;
            }
      in
      [ prologue; body; epilogue ]
  | [] -> []

let plan arch k = function
  | Off -> []
  | Coarse -> plan_coarse arch k
  | Fine -> plan_fine arch k

(* --- the pass ------------------------------------------------------ *)

let timeline arch (k : Kernel.t) g ~t0 ~wall =
  let spans = Array.of_list (plan arch k g) in
  let durations = exact_partition ~total:wall (Array.map (fun s -> s.sp_weight) spans) in
  let name_hash = name_hash k.Kernel.name in
  let start = ref t0 in
  Array.mapi
    (fun i s ->
      let d = durations.(i) in
      let t =
        {
          t_id = span_id ~name_hash ~start_pc:s.sp_start_pc ~end_pc:s.sp_end_pc;
          t_label = s.sp_label;
          t_start_pc = s.sp_start_pc;
          t_end_pc = s.sp_end_pc;
          t_mem_region = s.sp_mem_region;
          t_start_us = !start;
          t_time_us = d;
          t_bytes = s.sp_bytes;
          t_flops = s.sp_flops;
        }
      in
      start := !start +. d;
      t)
    spans
