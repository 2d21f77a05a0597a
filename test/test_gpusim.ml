(* Unit and property tests for the GPU simulator substrate. *)

open Gpusim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

(* ---- Arch / Clock / Dim3 ---- *)

let test_arch_lanes () =
  List.iter
    (fun a ->
      check_bool "concurrent lanes positive" true (Arch.concurrent_lanes a > 0);
      check_bool "analysis lanes positive" true (Arch.analysis_lanes a > 0);
      check_bool "analysis lanes << concurrent" true
        (Arch.analysis_lanes a < Arch.concurrent_lanes a))
    Arch.all

let test_arch_vendors () =
  check_string "a100 vendor" "NVIDIA" (Arch.vendor_to_string Arch.a100.Arch.vendor);
  check_string "mi300x vendor" "AMD" (Arch.vendor_to_string Arch.mi300x.Arch.vendor)

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now_us c);
  Clock.advance_us c 5.0;
  Clock.advance_us c 2.5;
  Alcotest.(check (float 1e-9)) "accumulates" 7.5 (Clock.now_us c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance_us: negative duration")
    (fun () -> Clock.advance_us c (-1.0));
  Clock.reset c;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Clock.now_us c)

let test_dim3 () =
  check_int "total" 24 (Dim3.total (Dim3.make ~y:3 ~z:4 2));
  check_string "pp" "(2,3,4)" (Dim3.to_string (Dim3.make ~y:3 ~z:4 2));
  Alcotest.check_raises "non-positive" (Invalid_argument "Dim3.make: non-positive component")
    (fun () -> ignore (Dim3.make 0))

(* ---- Hostctx ---- *)

let frame file line symbol = { Hostctx.file; line; symbol }

let test_hostctx_balance () =
  Hostctx.clear ();
  Hostctx.push Hostctx.Python (frame "a.py" 1 "f");
  Hostctx.push Hostctx.Python (frame "b.py" 2 "g");
  check_int "depth" 2 (Hostctx.depth Hostctx.Python);
  (match Hostctx.snapshot Hostctx.Python with
  | { Hostctx.file = "b.py"; _ } :: _ -> ()
  | _ -> Alcotest.fail "innermost first");
  Hostctx.pop Hostctx.Python;
  Hostctx.pop Hostctx.Python;
  Alcotest.check_raises "pop empty"
    (Invalid_argument "Hostctx.pop: empty stack (unbalanced scope)") (fun () ->
      Hostctx.pop Hostctx.Python)

let test_hostctx_exception_safe () =
  Hostctx.clear ();
  (try
     Hostctx.with_frame Hostctx.Native (frame "x.cpp" 3 "h") (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "restored after exception" 0 (Hostctx.depth Hostctx.Native)

(* ---- Device_mem ---- *)

let test_devmem_roundtrip () =
  let m = Device_mem.create ~capacity:(1 lsl 20) () in
  let a = Device_mem.alloc m ~tag:"t" 1000 in
  check_int "aligned size" 1024 a.Device_mem.bytes;
  check_bool "aligned base" true (a.Device_mem.base mod 512 = 0);
  check_int "used" 1024 (Device_mem.used_bytes m);
  check_int "live" 1 (Device_mem.live_count m);
  let freed = Device_mem.free m a.Device_mem.base in
  check_int "freed is same" a.Device_mem.base freed.Device_mem.base;
  check_int "used back to zero" 0 (Device_mem.used_bytes m);
  Device_mem.check_invariants m

let test_devmem_double_free () =
  let m = Device_mem.create ~capacity:4096 () in
  let a = Device_mem.alloc m 512 in
  ignore (Device_mem.free m a.Device_mem.base);
  Alcotest.check_raises "double free"
    (Invalid_argument "Device_mem.free: not a live allocation base") (fun () ->
      ignore (Device_mem.free m a.Device_mem.base))

let test_devmem_find_containing () =
  let m = Device_mem.create ~base:0 ~capacity:8192 () in
  let a = Device_mem.alloc m 512 in
  let b = Device_mem.alloc m 512 in
  (match Device_mem.find_containing m (a.Device_mem.base + 100) with
  | Some x -> check_int "inside a" a.Device_mem.base x.Device_mem.base
  | None -> Alcotest.fail "expected hit");
  (match Device_mem.find_containing m b.Device_mem.base with
  | Some x -> check_int "base boundary of b" b.Device_mem.base x.Device_mem.base
  | None -> Alcotest.fail "expected hit");
  check_bool "past end misses" true
    (Device_mem.find_containing m (b.Device_mem.base + 512) = None)

let test_devmem_oom () =
  let m = Device_mem.create ~capacity:1024 () in
  ignore (Device_mem.alloc m 1024);
  check_bool "oom raises" true
    (try
       ignore (Device_mem.alloc m 1);
       false
     with Device_mem.Out_of_memory _ -> true)

let test_devmem_coalesce_reuse () =
  let m = Device_mem.create ~capacity:4096 () in
  let a = Device_mem.alloc m 1024 in
  let b = Device_mem.alloc m 1024 in
  ignore (Device_mem.free m a.Device_mem.base);
  ignore (Device_mem.free m b.Device_mem.base);
  (* After coalescing, one allocation of the combined size must fit. *)
  let c = Device_mem.alloc m 4096 in
  check_int "whole space again" 4096 c.Device_mem.bytes;
  Device_mem.check_invariants m

let prop_devmem_invariants =
  QCheck.Test.make ~name:"device_mem invariants under random alloc/free" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 2048))
    (fun sizes ->
      let m = Device_mem.create ~capacity:(1 lsl 16) () in
      let live = ref [] in
      let rng = Pasta_util.Det_rng.create 5L in
      List.iter
        (fun sz ->
          if Pasta_util.Det_rng.bool rng || !live = [] then (
            match Device_mem.alloc m sz with
            | a -> live := a :: !live
            | exception Device_mem.Out_of_memory _ -> ())
          else
            match !live with
            | a :: rest ->
                ignore (Device_mem.free m a.Device_mem.base);
                live := rest
            | [] -> ())
        sizes;
      Device_mem.check_invariants m;
      true)

(* ---- Kernel / Sass / Warp ---- *)

let mk_kernel ?(regions = []) ?(flops = 0.0) ?(shared = 0) ?(barriers = 0) name =
  Kernel.make ~name ~grid:(Dim3.make 16) ~block:(Dim3.make 256) ~regions ~flops
    ~shared_bytes:shared ~barriers ()

let two_region_kernel =
  mk_kernel
    ~regions:
      [
        Kernel.region ~base:0x1000 ~bytes:4096 ~accesses:1000 ();
        Kernel.region ~write:true ~base:0x4000 ~bytes:8192 ~accesses:500 ();
      ]
    ~flops:1.0e6 ~shared:1024 ~barriers:2 "k"

let test_kernel_accessors () =
  check_int "total accesses" 1500 (Kernel.total_accesses two_region_kernel);
  check_int "bytes touched" 12288 (Kernel.bytes_touched two_region_kernel);
  check_int "bytes moved lower bound" 12288 (Kernel.bytes_moved two_region_kernel);
  check_int "threads" (16 * 256) (Kernel.threads two_region_kernel)

let test_kernel_invalid_region () =
  Alcotest.check_raises "negative accesses"
    (Invalid_argument "Kernel.region: negative access count") (fun () ->
      ignore (Kernel.region ~base:0 ~bytes:10 ~accesses:(-1) ()))

let test_sass_roundtrip () =
  let instrs = Sass.listing two_region_kernel in
  check_int "static size matches" (List.length instrs) (Sass.static_size two_region_kernel);
  let parsed = Sass.parse (Sass.dump two_region_kernel) in
  check_int "roundtrip length" (List.length instrs) (List.length parsed);
  List.iter2
    (fun (a : Instr.t) (b : Instr.t) ->
      check_int "pc" a.Instr.pc b.Instr.pc;
      check_bool "opcode" true (a.Instr.opcode = b.Instr.opcode))
    instrs parsed

let test_sass_memory_pcs () =
  let instrs = Sass.listing two_region_kernel in
  let pcs = Sass.memory_pcs instrs in
  (* one global access per region plus the LDGSTS of the shared-memory
     block *)
  check_int "memory instruction count" 3 (List.length pcs)

let test_sass_parse_error () =
  check_bool "bad line raises" true
    (try
       ignore (Sass.parse "/*0000*/ FROBNICATE R0 ;");
       false
     with Sass.Parse_error _ -> true)

let prop_sass_roundtrip =
  QCheck.Test.make ~name:"sass dump/parse roundtrip for random kernels" ~count:100
    QCheck.(pair (int_range 0 4) (int_range 0 1_000_000))
    (fun (nregions, flops) ->
      let regions =
        List.init nregions (fun i ->
            Kernel.region ~write:(i mod 2 = 0) ~base:(0x1000 * (i + 1)) ~bytes:256
              ~accesses:64 ())
      in
      let k = mk_kernel ~regions ~flops:(float_of_int flops) "rk" in
      let parsed = Sass.parse (Sass.dump k) in
      List.length parsed = Sass.static_size k)

(* Every sampled record of [k]: each chunk of its plan, filled; [f] gets
   the chunk's columns and the record's index. *)
let iter_records ~rng ~max_records_per_region k ~f =
  Array.iter
    (fun spec ->
      let b = Warp.fill_chunk ~rng ~warp_size:32 spec in
      let c = Warp.cols b in
      for i = 0 to b.Warp.b_len - 1 do
        f c i
      done)
    (Warp.plan ~max_records_per_region k)

let test_warp_weights_sum () =
  let rng = Pasta_util.Det_rng.create 3L in
  let total = ref 0 in
  iter_records ~rng ~max_records_per_region:16 two_region_kernel ~f:(fun c i ->
      total := !total + c.Warp.weights.{i});
  check_int "weights sum to true count" 1500 !total

let test_warp_addresses_in_bounds () =
  let rng = Pasta_util.Det_rng.create 4L in
  iter_records ~rng ~max_records_per_region:64 two_region_kernel ~f:(fun c i ->
      let addr = c.Warp.addrs.{i} in
      let in_r1 = addr >= 0x1000 && addr < 0x1000 + 4096 in
      let in_r2 = addr >= 0x4000 && addr < 0x4000 + 8192 in
      check_bool "address within some region" true (in_r1 || in_r2))

let test_warp_region_coverage () =
  (* Every non-empty region yields at least one record even with cap 1. *)
  let rng = Pasta_util.Det_rng.create 5L in
  let seen = Hashtbl.create 4 in
  iter_records ~rng ~max_records_per_region:1 two_region_kernel ~f:(fun c i ->
      Hashtbl.replace seen (c.Warp.writes.{i} <> 0) ());
  check_int "both regions sampled" 2 (Hashtbl.length seen)

let prop_warp_weights =
  QCheck.Test.make ~name:"warp sampled weights always sum to true accesses" ~count:200
    QCheck.(pair (int_range 1 100000) (int_range 1 256))
    (fun (accesses, cap) ->
      let k =
        mk_kernel ~regions:[ Kernel.region ~base:0 ~bytes:65536 ~accesses () ] "w"
      in
      let rng = Pasta_util.Det_rng.create 9L in
      let total = ref 0 in
      iter_records ~rng ~max_records_per_region:cap k ~f:(fun c i ->
          total := !total + c.Warp.weights.{i});
      !total = accesses)

(* The fill steps each column from the record before it.  Every record
   must equal its closed form, evaluated with one division per record as
   the sampling formulas state it, for any chunk of a Sequential, Strided
   or Random region: strides below the 4-byte step and past the extent,
   extents under 4 bytes, record counts that do not divide the span, and
   warp sizes that do not divide the warp wrap. *)
let reference_fill ~rng ~warp_size (spec : Warp.chunk_spec) =
  let r = spec.Warp.cs_region and n = spec.Warp.cs_n in
  let span = max 1 (r.Kernel.bytes - 4) in
  let wrap = max warp_size (span / 4) in
  let rows = Array.make spec.Warp.cs_len (0, 0, 0) in
  for j = 0 to spec.Warp.cs_len - 1 do
    let i = spec.Warp.cs_start + j in
    let off =
      match r.Kernel.pattern with
      | Kernel.Sequential -> span * i / n
      | Kernel.Strided s -> max 4 s * i mod span
      | Kernel.Random -> Pasta_util.Det_rng.int rng span
    in
    let weight = (r.Kernel.accesses / n) + if i < r.Kernel.accesses mod n then 1 else 0 in
    rows.(j) <- (r.Kernel.base + off, i * warp_size mod wrap / warp_size, weight)
  done;
  rows

let g_fill_case =
  let open QCheck.Gen in
  let ( let* ) = ( >>= ) in
  let* bytes = oneof [ int_range 0 7; int_range 8 4096; int_range 4097 (64 lsl 20) ] in
  let span = max 1 (bytes - 4) in
  let* pattern =
    oneof
      [
        return Kernel.Sequential;
        return Kernel.Random;
        map
          (fun s -> Kernel.Strided s)
          (oneof [ int_range 0 3; int_range 4 4096; int_range (span + 1) ((3 * span) + 8) ]);
      ]
  in
  let* accesses = oneof [ int_range 1 100; int_range 1 100_000 ] in
  let* cap = oneof [ int_range 1 64; int_range 65 5000 ] in
  let* warp_size = oneofl [ 1; 32; 48; 64 ] in
  let* chunk = int_range 0 7 in
  let* base = int_range 0 (1 lsl 40) in
  let* write = bool in
  return (bytes, pattern, accesses, cap, warp_size, chunk, base, write)

let print_fill_case (bytes, pattern, accesses, cap, warp_size, chunk, base, write) =
  Printf.sprintf "bytes=%d pattern=%s accesses=%d cap=%d warp=%d chunk=%d base=%d write=%b"
    bytes
    (match pattern with
    | Kernel.Sequential -> "sequential"
    | Kernel.Random -> "random"
    | Kernel.Strided s -> Printf.sprintf "strided %d" s)
    accesses cap warp_size chunk base write

let prop_stepped_fill =
  QCheck.Test.make ~name:"stepped fill equals the per-record formulas" ~count:1000
    (QCheck.make ~print:print_fill_case g_fill_case)
    (fun (bytes, pattern, accesses, cap, warp_size, chunk, base, write) ->
      let k =
        mk_kernel ~regions:[ Kernel.region ~write ~pattern ~base ~bytes ~accesses () ] "fill"
      in
      let specs = Warp.plan ~max_records_per_region:cap k in
      let spec = specs.(chunk mod Array.length specs) in
      let stream () = Pasta_util.Det_rng.of_key 11L [| chunk |] in
      let c = Warp.cols (Warp.fill_chunk ~rng:(stream ()) ~warp_size spec) in
      let expected = reference_fill ~rng:(stream ()) ~warp_size spec in
      let ok = ref (Bigarray.Array1.dim c.Warp.addrs = Array.length expected) in
      Array.iteri
        (fun j (addr, warp, weight) ->
          ok :=
            !ok
            && c.Warp.addrs.{j} = addr
            && c.Warp.warps.{j} = warp
            && c.Warp.weights.{j} = weight
            && c.Warp.sizes.{j} = 4
            && c.Warp.writes.{j} = if write then 1 else 0)
        expected;
      !ok)

(* The per-record path reads a descriptor's piece through a cursor that
   steps the fill's formulas.  For any sub-range [pos, pos + len) of a
   closed-form chunk, the records it reads (address, size, write flag, pc,
   warp, weight) must equal the filled chunk's at the same indices and the
   per-record closed form, and [Warp.sub] of the descriptor must equal the
   same sub-view of its filled columns.  The cursor reads one record of a
   dense batch first, then the rest of the chunk after the sub-range,
   then the records before it, so re-pointing a cursor is covered too. *)
let prop_cursor_steps_fill =
  QCheck.Test.make ~name:"cursor over a descriptor view equals the fill" ~count:1000
    (QCheck.make
       ~print:(fun (case, p, l) -> Printf.sprintf "%s pos=%d len=%d" (print_fill_case case) p l)
       QCheck.Gen.(triple g_fill_case (int_range 0 1023) (int_range 0 1024)))
    (fun ((bytes, pattern, accesses, cap, warp_size, chunk, base, write), p, l) ->
      let pattern = match pattern with Kernel.Random -> Kernel.Sequential | p -> p in
      let k =
        mk_kernel ~regions:[ Kernel.region ~write ~pattern ~base ~bytes ~accesses () ] "cursor"
      in
      let specs = Warp.plan ~max_records_per_region:cap k in
      let spec = specs.(chunk mod Array.length specs) in
      let whole = spec.Warp.cs_len in
      let pos = p mod whole in
      let len = l mod (whole - pos + 1) in
      let d = Warp.describe ~warp_size spec in
      let dense = Warp.fill_chunk ~rng:(Pasta_util.Det_rng.create 1L) ~warp_size spec in
      let f = Warp.cols dense in
      let naive = reference_fill ~rng:(Pasta_util.Det_rng.create 1L) ~warp_size spec in
      let c = Warp.cursor () in
      Warp.seek c dense ~pos:0 ~len:whole;
      Warp.next c;
      let ok = ref true in
      let read ~pos ~len =
        Warp.seek c d ~pos ~len;
        for j = pos to pos + len - 1 do
          Warp.next c;
          let addr, warp, weight = naive.(j) in
          ok :=
            !ok
            && c.Warp.c_addr = f.Warp.addrs.{j}
            && c.Warp.c_addr = addr
            && c.Warp.c_size = f.Warp.sizes.{j}
            && Bool.to_int c.Warp.c_write = f.Warp.writes.{j}
            && c.Warp.c_pc = d.Warp.b_pc
            && c.Warp.c_warp = f.Warp.warps.{j}
            && c.Warp.c_warp = warp
            && c.Warp.c_weight = f.Warp.weights.{j}
            && c.Warp.c_weight = weight
        done
      in
      read ~pos ~len;
      let past_the_end =
        match Warp.next c with () -> false | exception Invalid_argument _ -> true
      in
      read ~pos:(pos + len) ~len:(whole - pos - len);
      read ~pos:0 ~len:pos;
      let sub = Warp.sub d ~pos ~len in
      let view col = Bigarray.Array1.sub col pos len in
      !ok && past_the_end
      && Warp.batch_len sub = len
      && Warp.cols sub
         = {
             Warp.addrs = view f.Warp.addrs;
             sizes = view f.Warp.sizes;
             warps = view f.Warp.warps;
             weights = view f.Warp.weights;
             writes = view f.Warp.writes;
           })

(* ---- Costmodel ---- *)

let test_cost_roofline () =
  let small = mk_kernel ~flops:1.0 "small" in
  let big = mk_kernel ~flops:1.0e12 "big" in
  check_bool "flops monotonic" true
    (Costmodel.kernel_time_us Arch.a100 big > Costmodel.kernel_time_us Arch.a100 small);
  check_bool "includes launch overhead" true
    (Costmodel.kernel_time_us Arch.a100 small >= Arch.a100.Arch.launch_overhead_us)

let test_cost_memcpy_kinds () =
  let h2d = Costmodel.memcpy_time_us Arch.a100 ~bytes:(1 lsl 26) ~kind:`H2d in
  let d2d = Costmodel.memcpy_time_us Arch.a100 ~bytes:(1 lsl 26) ~kind:`D2d in
  check_bool "device-local copy faster than PCIe" true (d2d < h2d)

let test_cost_transfer_linear () =
  let t1 = Costmodel.transfer_time_us Arch.a100 ~records:1000 in
  let t2 = Costmodel.transfer_time_us Arch.a100 ~records:2000 in
  Alcotest.(check (float 1e-6)) "linear in records" (2.0 *. t1) t2

(* ---- Device ---- *)

let test_device_event_order () =
  let d = Device.create Arch.a100 in
  let log = ref [] in
  Device.add_probe d
    {
      Device.probe_name = "log";
      on_event =
        (fun ev ->
          let tag =
            match ev with
            | Device.Api _ -> "api"
            | Device.Malloc _ -> "malloc"
            | Device.Free _ -> "free"
            | Device.Memcpy _ -> "memcpy"
            | Device.Memset _ -> "memset"
            | Device.Launch_begin _ -> "launch_begin"
            | Device.Launch_end _ -> "launch_end"
            | Device.Sync _ -> "sync"
            | Device.Region_probe _ -> "region"
          in
          log := tag :: !log);
    };
  let a = Device.malloc d 1024 in
  let k =
    Kernel.make ~name:"k" ~grid:(Dim3.make 1) ~block:(Dim3.make 32)
      ~regions:[ Kernel.region ~base:a.Device_mem.base ~bytes:1024 ~accesses:10 () ]
      ()
  in
  ignore (Device.launch d k);
  Device.synchronize d;
  let seq = List.rev !log in
  Alcotest.(check (list string)) "event sequence"
    [ "api"; "malloc"; "api"; "api"; "launch_begin"; "launch_end"; "api"; "api"; "sync"; "api" ]
    seq

let test_device_grid_ids () =
  let d = Device.create Arch.a100 in
  let k = mk_kernel "k" in
  let ids = ref [] in
  Device.add_probe d
    {
      Device.probe_name = "ids";
      on_event =
        (fun ev ->
          match ev with
          | Device.Launch_begin i -> ids := i.Device.grid_id :: !ids
          | _ -> ());
    };
  ignore (Device.launch d k);
  ignore (Device.launch d k);
  ignore (Device.launch d k);
  Alcotest.(check (list int)) "monotonic grid ids" [ 1; 2; 3 ] (List.rev !ids);
  check_int "launch count" 3 (Device.launches d)

let test_device_api_names () =
  let nv = Device.create Arch.a100 in
  let amd = Device.create Arch.mi300x in
  check_string "cuda prefix" "cudaMalloc" (Device.api_name nv "Malloc");
  check_string "hip prefix" "hipMalloc" (Device.api_name amd "Malloc")

let test_device_probe_removal () =
  let d = Device.create Arch.a100 in
  let hits = ref 0 in
  Device.add_probe d { Device.probe_name = "p"; on_event = (fun _ -> incr hits) };
  ignore (Device.malloc d 512);
  Device.remove_probe d "p";
  ignore (Device.malloc d 512);
  check_int "no events after removal" 3 !hits

let test_device_sample_cap () =
  let d = Device.create Arch.a100 in
  Device.set_sample_cap d 4;
  let a = Device.malloc d 65536 in
  let k =
    Kernel.make ~name:"k" ~grid:(Dim3.make 1) ~block:(Dim3.make 32)
      ~regions:
        [ Kernel.region ~base:a.Device_mem.base ~bytes:65536 ~accesses:100000 () ]
      ()
  in
  let records = ref 0 in
  let weight = ref 0 in
  Device.set_instrument d
    {
      Device.instr_name = "count";
      on_kernel_entry = ignore;
      on_region = (fun _ _ -> ());
      on_batch =
        Some
          (fun _ b ->
            records := !records + Warp.batch_len b;
            weight := !weight + Warp.batch_weight b);
      on_kernel_exit = (fun _ _ -> ());
    };
  let stats = Device.launch d k in
  check_int "records capped" 4 !records;
  check_int "weights exact" 100000 !weight;
  check_int "true accesses exact" 100000 stats.Device.true_accesses;
  Alcotest.check_raises "invalid cap"
    (Invalid_argument "Device.set_sample_cap: must be positive") (fun () ->
      Device.set_sample_cap d 0)

let test_device_managed_registers_uvm () =
  let d = Device.create Arch.a100 in
  let a = Device.malloc_managed d (4 * 1024 * 1024) in
  check_bool "registered" true (Uvm.is_managed (Device.uvm d) a.Device_mem.base);
  Device.free d a.Device_mem.base;
  check_bool "unregistered on free" false (Uvm.is_managed (Device.uvm d) a.Device_mem.base)

let test_device_clock_advances () =
  let d = Device.create Arch.a100 in
  let t0 = Device.now_us d in
  Device.memcpy d ~dst:0 ~src:0 ~bytes:(1 lsl 20) ~kind:Device.Host_to_device ();
  check_bool "memcpy advances clock" true (Device.now_us d > t0)

(* A channel's table: pieces keep their order and bounds as the table
   grows past its first arrays, a stamp lands on the unstamped tail only,
   and clearing empties it for the next kernel. *)
let test_pieces_table () =
  let b = Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0 ~addrs:(Array.init 100 Fun.id)
      ~sizes:(Array.make 100 4) ~warps:(Array.make 100 0) ~weights:(Array.make 100 1)
      ~writes:(Bytes.make 100 '\000')
  in
  let p = Warp.pieces () in
  for i = 0 to 39 do
    Warp.add_piece p b ~pos:i ~len:(i mod 3);
    if i = 9 then Warp.stamp_pieces p 1.0
  done;
  Warp.stamp_pieces p 2.0;
  check_int "every piece kept" 40 p.Warp.p_count;
  check_int "every piece stamped" 40 p.Warp.p_stamped;
  check_bool "pieces in order" true
    (List.for_all (fun i -> p.Warp.p_pos.(i) = i && p.Warp.p_len.(i) = i mod 3) (List.init 40 Fun.id));
  check_bool "a flush stamps only the pieces it carried" true
    (p.Warp.p_time.(9) = 1.0 && p.Warp.p_time.(10) = 2.0 && p.Warp.p_time.(39) = 2.0);
  Alcotest.check_raises "a piece past the batch" (Invalid_argument "Warp.add_piece") (fun () ->
      Warp.add_piece p b ~pos:99 ~len:2);
  Warp.clear_pieces p;
  check_int "cleared" 0 p.Warp.p_count;
  check_bool "no batch kept" true (Array.for_all (fun b' -> b' != b) p.Warp.p_batch)

(* [hand_off] calls once for a table with pieces, never for an empty one,
   and empties the table even when the consumer raises. *)
let test_pieces_hand_off () =
  let b = Warp.batch_of_arrays ~region:0 ~chunk:0 ~pc:0 ~addrs:[| 0 |] ~sizes:[| 4 |]
      ~warps:[| 0 |] ~weights:[| 1 |] ~writes:(Bytes.make 1 '\000')
  in
  let p = Warp.pieces () and calls = ref 0 in
  Warp.hand_off p (fun _ -> incr calls);
  check_int "no call for an empty table" 0 !calls;
  Warp.add_piece p b ~pos:0 ~len:1;
  Warp.hand_off p (fun q -> calls := !calls + q.Warp.p_count);
  check_int "one call with the piece" 1 !calls;
  check_int "empty after the hand-off" 0 p.Warp.p_count;
  Warp.add_piece p b ~pos:0 ~len:1;
  (try Warp.hand_off p (fun _ -> failwith "consumer") with Failure _ -> ());
  check_int "empty after a raising consumer" 0 p.Warp.p_count

let suite =
  [
    ("arch lanes", `Quick, test_arch_lanes);
    ("arch vendors", `Quick, test_arch_vendors);
    ("clock", `Quick, test_clock);
    ("dim3", `Quick, test_dim3);
    ("hostctx balance", `Quick, test_hostctx_balance);
    ("hostctx exception safety", `Quick, test_hostctx_exception_safe);
    ("device_mem roundtrip", `Quick, test_devmem_roundtrip);
    ("device_mem double free", `Quick, test_devmem_double_free);
    ("device_mem find_containing", `Quick, test_devmem_find_containing);
    ("device_mem oom", `Quick, test_devmem_oom);
    ("device_mem coalesce+reuse", `Quick, test_devmem_coalesce_reuse);
    qtest prop_devmem_invariants;
    ("kernel accessors", `Quick, test_kernel_accessors);
    ("kernel invalid region", `Quick, test_kernel_invalid_region);
    ("sass roundtrip", `Quick, test_sass_roundtrip);
    ("sass memory pcs", `Quick, test_sass_memory_pcs);
    ("sass parse error", `Quick, test_sass_parse_error);
    qtest prop_sass_roundtrip;
    ("warp weights sum", `Quick, test_warp_weights_sum);
    ("warp addresses in bounds", `Quick, test_warp_addresses_in_bounds);
    ("warp region coverage", `Quick, test_warp_region_coverage);
    qtest prop_warp_weights;
    ("cost roofline", `Quick, test_cost_roofline);
    ("cost memcpy kinds", `Quick, test_cost_memcpy_kinds);
    ("cost transfer linear", `Quick, test_cost_transfer_linear);
    ("device event order", `Quick, test_device_event_order);
    ("device grid ids", `Quick, test_device_grid_ids);
    ("device api names", `Quick, test_device_api_names);
    ("device probe removal", `Quick, test_device_probe_removal);
    ("device sample cap", `Quick, test_device_sample_cap);
    ("device managed registers uvm", `Quick, test_device_managed_registers_uvm);
    ("device clock advances", `Quick, test_device_clock_advances);
    qtest prop_stepped_fill;
    qtest prop_cursor_steps_fill;
    ("pieces table: append, stamp, clear", `Quick, test_pieces_table);
    ("pieces table: one hand-off, then empty", `Quick, test_pieces_hand_off);
  ]
