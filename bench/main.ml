(* Evaluation harness: regenerates every table and figure of the paper's
   evaluation section (PASTA, CGO 2026) on the simulated substrate, plus
   wall-clock Bechamel microbenches and ablations.  The wall-clock
   experiments measure, gate and write their BENCH_*.json artifacts
   through Harness.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig9    -- one experiment
     dune exec bench/main.exe -- list    -- available experiments *)

open Harness
module MC = Pasta_tools.Memory_charact
module UX = Pasta_tools.Uvm_experiment

let mb bytes = float_of_int bytes /. 1048576.0

let all_workloads =
  List.concat_map
    (fun abbr -> [ (abbr, Runner.Inference); (abbr, Runner.Train) ])
    Runner.all_abbrs

let baseline_time ?(arch = Gpusim.Arch.a100) abbr mode =
  let device = Gpusim.Device.create arch in
  let ctx = Dlfw.Ctx.create device in
  ignore (Runner.run_default ctx abbr ~mode);
  let t = Gpusim.Device.now_us device in
  Dlfw.Ctx.destroy ctx;
  t

(* ------------------------------------------------------------------ *)
(* Figure 4: cross-layer call stack of the hottest kernel.            *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: cross-layer call stack, most memory-referencing kernel (BERT inference)";
  let kf = Pasta_tools.Kernel_freq.create () in
  ignore (fresh_run ~tool:(Pasta_tools.Kernel_freq.tool kf) "BERT" Runner.Inference);
  match Pasta_tools.Kernel_freq.most_mem_referenced kf with
  | None -> Format.fprintf ppf "no kernels observed@."
  | Some (k, accesses) ->
      Format.fprintf ppf "kernel: %s (%d memory references)@.@." k.Pasta.Event.name accesses;
      Pasta.Callstack.pp ppf (Pasta.Callstack.of_kernel k)

(* ------------------------------------------------------------------ *)
(* Figure 7: kernel invocation frequency distribution.                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Figure 7: kernel invocation frequency across model inference and training";
  List.iter
    (fun (abbr, mode) ->
      let kf = Pasta_tools.Kernel_freq.create () in
      ignore (fresh_run ~tool:(Pasta_tools.Kernel_freq.tool kf) abbr mode);
      Format.fprintf ppf "%s %s: %d launches, %d distinct kernels@." abbr
        (Runner.mode_to_string mode)
        (Pasta_tools.Kernel_freq.total_launches kf)
        (Pasta_tools.Kernel_freq.distinct_kernels kf);
      List.iter
        (fun (name, count) -> Format.fprintf ppf "    %-62s %8d@." name count)
        (Pasta_tools.Kernel_freq.top kf 6))
    all_workloads

(* ------------------------------------------------------------------ *)
(* Table V: memory characteristics of the DNN models.                 *)
(* ------------------------------------------------------------------ *)

(* Reference values from the paper, for side-by-side comparison:
   (kernel count, footprint MB, WS MB, avg MB, median MB, p90 MB). *)
let paper_tablev = function
  | "AN", Runner.Inference -> Some (1428, 1528.13, 876.12, 216.25, 148.26, 406.33)
  | "RN-18", Runner.Inference -> Some (1497, 1232.13, 1024.0, 86.07, 64.0, 172.27)
  | "RN-34", Runner.Inference -> Some (2657, 1261.59, 1024.0, 76.61, 43.25, 164.0)
  | "BERT", Runner.Inference -> Some (487, 1179.64, 212.62, 75.23, 37.69, 141.75)
  | "GPT-2", Runner.Inference -> Some (583, 4148.10, 1493.85, 59.02, 25.08, 138.0)
  | "Whisper", Runner.Inference -> Some (663, 2304.15, 627.44, 78.54, 20.81, 153.81)
  | "AN", Runner.Train -> Some (4040, 3285.17, 1512.09, 188.60, 144.62, 406.33)
  | "RN-18", Runner.Train -> Some (1542, 3165.13, 1024.0, 84.58, 43.25, 172.27)
  | "RN-34", Runner.Train -> Some (2734, 4316.86, 1024.0, 75.33, 43.25, 164.0)
  | "BERT", Runner.Train -> Some (554, 5679.03, 235.47, 77.71, 37.97, 209.30)
  | "GPT-2", Runner.Train -> Some (2004, 7862.10, 2240.77, 51.37, 24.0, 137.66)
  | "Whisper", Runner.Train -> Some (665, 2104.80, 937.01, 80.42, 20.81, 153.81)
  | _ -> None

let tablev_row abbr mode =
  let mc = MC.create ~variant:MC.Gpu () in
  ignore (fresh_run ~tool:(MC.tool mc) abbr mode);
  MC.result mc

let tablev () =
  section "Table V: memory characteristics of diverse DNN models (measured vs paper)";
  let header =
    [ "mode"; "model"; "kernels"; "footprint"; "WS"; "min WS"; "avg WS"; "median"; "p90" ]
  in
  let fmt_pair ours paper = Printf.sprintf "%.0f/%.0f" ours paper in
  let rows =
    List.map
      (fun (abbr, mode) ->
        let r = tablev_row abbr mode in
        let kc, fp, ws, avg, med, p90 =
          match paper_tablev (abbr, mode) with
          | Some p -> p
          | None -> (0, 0.0, 0.0, 0.0, 0.0, 0.0)
        in
        [
          Runner.mode_to_string mode;
          abbr;
          Printf.sprintf "%d/%d" r.MC.kernel_count kc;
          fmt_pair (mb r.MC.footprint_bytes) fp;
          fmt_pair (mb r.MC.ws_bytes) ws;
          Format.asprintf "%a" Pasta_util.Bytesize.pp r.MC.ws_min;
          fmt_pair (r.MC.ws_mean /. 1048576.0) avg;
          fmt_pair (r.MC.ws_median /. 1048576.0) med;
          fmt_pair (r.MC.ws_p90 /. 1048576.0) p90;
        ])
      all_workloads
  in
  Format.fprintf ppf "cells are measured/paper; sizes in MB@.@.";
  Pasta_util.Texttab.render ppf ~header
    ~align:[ Pasta_util.Texttab.Left; Left; Right; Right; Right; Right; Right; Right; Right ]
    rows

(* ------------------------------------------------------------------ *)
(* Figures 9 and 10: analysis-model overhead and its breakdown.       *)
(* ------------------------------------------------------------------ *)

type overhead_run = {
  o_abbr : string;
  o_mode : Runner.mode;
  o_variant : MC.variant;
  o_base_us : float;
  o_total_us : float;
  o_phases : Vendor.Phases.t;
}

let seven_days_us = 7.0 *. 24.0 *. 3600.0 *. 1.0e6

(* Workloads whose footprint exceeds the device memory are skipped, as
   they would OOM on the real part too (fp32 GPT-2 training does not fit
   a 12 GB RTX 3060). *)
let overhead_suite arch =
  List.concat_map
    (fun (abbr, mode) ->
      match baseline_time ~arch abbr mode with
      | exception Gpusim.Device_mem.Out_of_memory _ -> []
      | base ->
          List.map
            (fun variant ->
              let mc = MC.create ~variant () in
              let result = (fresh_run ~arch ~tool:(MC.tool mc) abbr mode).value in
              {
                o_abbr = abbr;
                o_mode = mode;
                o_variant = variant;
                o_base_us = base;
                o_total_us = result.Pasta.Session.elapsed_us;
                o_phases = result.Pasta.Session.phases;
              })
            [ MC.Gpu; MC.Cpu_sanitizer; MC.Cpu_nvbit ])
    all_workloads

let suites : (string, overhead_run list) Hashtbl.t = Hashtbl.create 4

let suite_for arch =
  let key = arch.Gpusim.Arch.name in
  match Hashtbl.find_opt suites key with
  | Some s -> s
  | None ->
      let s = overhead_suite arch in
      Hashtbl.add suites key s;
      s

let overhead_string r =
  if r.o_total_us > seven_days_us then "inf"
  else Printf.sprintf "%.1fx" (r.o_total_us /. r.o_base_us)

let fig9 () =
  section "Figure 9: normalized overhead of analysis models (inf = > 7 days)";
  List.iter
    (fun arch ->
      let suite = suite_for arch in
      Format.fprintf ppf "--- %s ---@." arch.Gpusim.Arch.name;
      let header = [ "workload"; "CS-GPU"; "CS-CPU"; "NVBIT-CPU" ] in
      let find abbr mode v =
        List.find_opt
          (fun r -> r.o_abbr = abbr && r.o_mode = mode && r.o_variant = v)
          suite
      in
      let rows =
        List.map
          (fun (abbr, mode) ->
            Printf.sprintf "%s-%s" abbr (Runner.mode_to_string mode)
            :: List.map
                 (fun v ->
                   match find abbr mode v with
                   | Some r -> overhead_string r
                   | None -> "OOM")
                 [ MC.Gpu; MC.Cpu_sanitizer; MC.Cpu_nvbit ])
          all_workloads
      in
      Pasta_util.Texttab.render ppf ~header
        ~align:[ Pasta_util.Texttab.Left; Right; Right; Right ]
        rows;
      (* Average speedup of the GPU-accelerated tool over the CPU tools
         (the paper reports 941x / 13006x on A100, 627x / 7353x on 3060). *)
      let speedups v =
        List.filter_map
          (fun (abbr, mode) ->
            match (find abbr mode MC.Gpu, find abbr mode v) with
            | Some g, Some c when g.o_total_us > 0.0 ->
                Some (c.o_total_us /. g.o_total_us)
            | _ -> None)
          all_workloads
      in
      let mean xs = Pasta_util.Stats.mean (Array.of_list xs) in
      Format.fprintf ppf
        "@.CS-GPU is on average %.0fx faster than CS-CPU and %.0fx faster than NVBIT-CPU@.@."
        (mean (speedups MC.Cpu_sanitizer))
        (mean (speedups MC.Cpu_nvbit)))
    [ Gpusim.Arch.a100; Gpusim.Arch.rtx3060 ]

let fig10 () =
  section "Figure 10: breakdown of PASTA profiling time";
  List.iter
    (fun arch ->
      let suite = suite_for arch in
      Format.fprintf ppf "--- %s ---@." arch.Gpusim.Arch.name;
      let header = [ "workload"; "variant"; "workload%"; "collect%"; "transfer%"; "analysis%" ] in
      let rows =
        List.map
          (fun r ->
            let w, c, t, a = Vendor.Phases.fractions r.o_phases in
            [
              Printf.sprintf "%s-%s" r.o_abbr (Runner.mode_to_string r.o_mode);
              MC.variant_to_string r.o_variant;
              Printf.sprintf "%.1f" (100.0 *. w);
              Printf.sprintf "%.1f" (100.0 *. c);
              Printf.sprintf "%.1f" (100.0 *. t);
              Printf.sprintf "%.1f" (100.0 *. a);
            ])
          suite
      in
      Pasta_util.Texttab.render ppf ~header
        ~align:[ Pasta_util.Texttab.Left; Left; Right; Right; Right; Right ]
        rows;
      Format.pp_print_newline ppf ())
    [ Gpusim.Arch.a100; Gpusim.Arch.rtx3060 ]

(* ------------------------------------------------------------------ *)
(* Figures 11 and 12: UVM prefetching.                                *)
(* ------------------------------------------------------------------ *)

let uvm_figure ~oversub title =
  section title;
  List.iter
    (fun (arch_name, arch) ->
      Format.fprintf ppf "--- %s ---@." arch_name;
      let header = [ "model"; "baseline"; "object-level"; "tensor-level"; "obj speedup"; "ten speedup" ] in
      let outcomes =
        List.map (fun abbr -> UX.run ~arch ~oversub abbr) Runner.all_abbrs
      in
      let rows =
        List.map
          (fun o ->
            [
              o.UX.abbr;
              "1.00";
              Printf.sprintf "%.2f" (o.UX.object_level.UX.elapsed_us /. o.UX.baseline.UX.elapsed_us);
              Printf.sprintf "%.2f" (o.UX.tensor_level.UX.elapsed_us /. o.UX.baseline.UX.elapsed_us);
              Printf.sprintf "%.2fx" (UX.speedup o `Object);
              Printf.sprintf "%.2fx" (UX.speedup o `Tensor);
            ])
          outcomes
      in
      Pasta_util.Texttab.render ppf ~header
        ~align:[ Pasta_util.Texttab.Left; Right; Right; Right; Right; Right ]
        rows;
      let avg f =
        Pasta_util.Stats.mean (Array.of_list (List.map f outcomes))
      in
      Format.fprintf ppf
        "@.average speedup: object-level %.2fx, tensor-level %.2fx@.@."
        (avg (fun o -> UX.speedup o `Object))
        (avg (fun o -> UX.speedup o `Tensor)))
    [ ("RTX 3060", Gpusim.Arch.rtx3060); ("A100", Gpusim.Arch.a100) ]

let fig11 () =
  uvm_figure ~oversub:1.0
    "Figure 11: object- vs tensor-level prefetch, no oversubscription (normalized time, lower is better)"

let fig12 () =
  uvm_figure ~oversub:3.0
    "Figure 12: object- vs tensor-level prefetch, 3x oversubscription (normalized time, lower is better)"

(* ------------------------------------------------------------------ *)
(* Figure 13: time-series hotness of BERT inference.                  *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Figure 13: memory access hotness of BERT inference over time (2 MiB blocks)";
  let hot = Pasta_tools.Hotness.create () in
  ignore (fresh_run ~tool:(Pasta_tools.Hotness.tool hot) "BERT" Runner.Inference);
  Pasta_tools.Hotness.report hot ppf

(* ------------------------------------------------------------------ *)
(* Figure 14: GPT-2 training memory usage, NVIDIA vs AMD.             *)
(* ------------------------------------------------------------------ *)

let mem_profile arch =
  let device = Gpusim.Device.create arch in
  let ctx = Dlfw.Ctx.create device in
  let mt = Pasta_tools.Mem_timeline.create () in
  let session = Pasta.Session.attach ~tool:(Pasta_tools.Mem_timeline.tool mt) device in
  let model = Dlfw.Gpt2.build ctx in
  Dlfw.Model.train_iter ctx model;
  let _ = Pasta.Session.detach session in
  Dlfw.Ctx.destroy ctx;
  mt

let fig14 () =
  section "Figure 14: memory usage over one GPT-2 training iteration, NVIDIA vs AMD";
  let buckets = 64 in
  let nv = mem_profile Gpusim.Arch.a100 in
  let amd = mem_profile Gpusim.Arch.mi300x in
  let describe name mt =
    Format.fprintf ppf "%-14s peak %8.0f MB, %5d allocs, %5d frees@.  " name
      (Pasta_tools.Mem_timeline.peak_bytes mt /. 1048576.0)
      (Pasta_tools.Mem_timeline.alloc_events mt)
      (Pasta_tools.Mem_timeline.free_events mt);
    Pasta_util.Timeline.pp_sparkline ppf (Pasta_tools.Mem_timeline.series mt ~buckets);
    Format.pp_print_newline ppf ()
  in
  describe "NVIDIA (A100)" nv;
  describe "AMD (MI300X)" amd;
  let diff =
    Pasta_util.Timeline.diff
      (Pasta_tools.Mem_timeline.series nv ~buckets)
      (Pasta_tools.Mem_timeline.series amd ~buckets)
  in
  let s = Pasta_util.Stats.summarize diff in
  Format.fprintf ppf
    "difference (NVIDIA - AMD, MB): min %.0f, max %.0f, mean %.0f@."
    s.Pasta_util.Stats.min s.Pasta_util.Stats.max s.Pasta_util.Stats.mean;
  Format.fprintf ppf
    "(expected shape: same ramp-up/peak/ramp-down; NVIDIA fewer alloc events, slightly higher peak)@."

(* ------------------------------------------------------------------ *)
(* Figure 15: Megatron GPT-2 345M per-GPU memory, DP / TP / PP.       *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  section "Figure 15: per-GPU memory, Megatron GPT-2 345M, one training iteration";
  List.iter
    (fun strategy ->
      let r = Megatron.Trainer.run_iteration strategy in
      Format.fprintf ppf "--- %s ---@." (Megatron.Trainer.strategy_to_string strategy);
      List.iter
        (fun (id, mt) ->
          Format.fprintf ppf "GPU%d  peak %8.0f MB  " id
            (Pasta_tools.Mem_timeline.peak_bytes mt /. 1048576.0);
          Pasta_util.Timeline.pp_sparkline ppf (Pasta_tools.Mem_timeline.series mt ~buckets:64);
          Format.pp_print_newline ppf ())
        r.Megatron.Trainer.timelines;
      (match r.Megatron.Trainer.timelines with
      | [ (_, t0); (_, t1) ] ->
          let d =
            Pasta_util.Timeline.diff
              (Pasta_tools.Mem_timeline.series t0 ~buckets:64)
              (Pasta_tools.Mem_timeline.series t1 ~buckets:64)
          in
          let s = Pasta_util.Stats.summarize d in
          Format.fprintf ppf "GPU0-GPU1 difference (MB): min %.0f max %.0f mean %.0f@.@."
            s.Pasta_util.Stats.min s.Pasta_util.Stats.max s.Pasta_util.Stats.mean
      | _ -> ()))
    Megatron.Trainer.all_strategies;
  (* Multi-node mode (paper §IV-D): one PASTA profile per rank. *)
  Format.fprintf ppf "--- DP across 2 nodes x 2 GPUs (per-rank profiles) ---@.";
  let nr = Megatron.Trainer.run_multinode_dp ~nodes:2 ~gpus_per_node:2 () in
  List.iter
    (fun (node, rank, mt) ->
      Format.fprintf ppf "node%d/rank%d  peak %8.0f MB@." node rank
        (Pasta_tools.Mem_timeline.peak_bytes mt /. 1048576.0))
    nr.Megatron.Trainer.per_rank;
  Format.fprintf ppf
    "iteration time: %.1f ms over InfiniBand vs %.1f ms single-node (x%.2f)@."
    (nr.Megatron.Trainer.internode_elapsed_us /. 1000.0)
    (nr.Megatron.Trainer.intranode_elapsed_us /. 1000.0)
    (nr.Megatron.Trainer.internode_elapsed_us /. nr.Megatron.Trainer.intranode_elapsed_us)

(* ------------------------------------------------------------------ *)
(* Instruction-level analysis tools (paper §III-H).                    *)
(* ------------------------------------------------------------------ *)

let instr () =
  section "Instruction-level tools (paper §III-H): divergence, barrier stalls, value hazards";
  let base = baseline_time "BERT" Runner.Inference in
  let run_tool name tool report =
    let result = (fresh_run ~tool "BERT" Runner.Inference).value in
    Format.fprintf ppf "--- %s (overhead %.2fx) ---@." name
      (result.Pasta.Session.elapsed_us /. base);
    report ppf;
    Format.pp_print_newline ppf ()
  in
  let d = Pasta_tools.Divergence.create () in
  run_tool "branch divergence" (Pasta_tools.Divergence.tool d) (Pasta_tools.Divergence.report d);
  let b = Pasta_tools.Barrier_stall.create () in
  run_tool "barrier stalls + bank conflicts" (Pasta_tools.Barrier_stall.tool b)
    (Pasta_tools.Barrier_stall.report b);
  let v = Pasta_tools.Value_check.create () in
  run_tool "value sanitizer" (Pasta_tools.Value_check.tool v) (Pasta_tools.Value_check.report v);
  let s = Pasta_tools.Op_summary.create () in
  run_tool "operator summary (DLProf-style)" (Pasta_tools.Op_summary.tool s)
    (Pasta_tools.Op_summary.report s);
  let u = Pasta_tools.Underutilized.create () in
  run_tool "underutilized memory regions" (Pasta_tools.Underutilized.tool u)
    (Pasta_tools.Underutilized.report u)

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: oversubscription sweep (BERT, A100; normalized time vs demand paging)";
  let header = [ "oversub"; "object-level"; "tensor-level" ] in
  let rows =
    List.map
      (fun oversub ->
        let o = UX.run ~arch:Gpusim.Arch.a100 ~oversub "BERT" in
        [
          Printf.sprintf "%.1fx" oversub;
          Printf.sprintf "%.2f" (o.UX.object_level.UX.elapsed_us /. o.UX.baseline.UX.elapsed_us);
          Printf.sprintf "%.2f" (o.UX.tensor_level.UX.elapsed_us /. o.UX.baseline.UX.elapsed_us);
        ])
      [ 1.0; 1.5; 2.0; 3.0; 4.0 ]
  in
  Pasta_util.Texttab.render ppf ~header
    ~align:[ Pasta_util.Texttab.Right; Right; Right ] rows;

  section "Ablation: batch size vs footprint and working set (BERT inference, A100)";
  let header = [ "batch"; "footprint (MB)"; "WS (MB)"; "kernels" ] in
  let rows =
    List.map
      (fun batch ->
        let device = Gpusim.Device.create Gpusim.Arch.a100 in
        let ctx = Dlfw.Ctx.create device in
        let mc = MC.create () in
        let session = Pasta.Session.attach ~tool:(MC.tool mc) device in
        let model = Dlfw.Bert.build ~batch ctx in
        Dlfw.Model.inference_iter ctx model;
        let _ = Pasta.Session.detach session in
        let r = MC.result mc in
        Dlfw.Ctx.destroy ctx;
        [
          string_of_int batch;
          Printf.sprintf "%.0f" (mb r.MC.footprint_bytes);
          Printf.sprintf "%.0f" (mb r.MC.ws_bytes);
          string_of_int r.MC.kernel_count;
        ])
      [ 1; 4; 16; 64 ]
  in
  Pasta_util.Texttab.render ppf ~header
    ~align:[ Pasta_util.Texttab.Right; Right; Right; Right ]
    rows;

  section "Ablation: training-memory levers (GPT-2, A100): checkpointing and optimizer state";
  let header = [ "configuration"; "peak alloc (MB)"; "kernels" ] in
  let train ~checkpoint ~optimizer =
    let device = Gpusim.Device.create Gpusim.Arch.a100 in
    let ctx = Dlfw.Ctx.create device in
    let m = Dlfw.Gpt2.build ~checkpoint ctx in
    (match optimizer with
    | Some opt -> Dlfw.Model.train_iter_opt ctx m ~optimizer:opt
    | None -> Dlfw.Model.train_iter ctx m);
    let peak = mb (Dlfw.Allocator.peak_allocated ctx.Dlfw.Ctx.pool) in
    let kernels = Gpusim.Device.launches device in
    Dlfw.Ctx.destroy ctx;
    (peak, kernels)
  in
  let rows =
    List.map
      (fun (label, checkpoint, optimizer) ->
        let peak, kernels = train ~checkpoint ~optimizer in
        [ label; Printf.sprintf "%.0f" peak; string_of_int kernels ])
      [
        ("eager + SGD", false, None);
        ("eager + Adam", false, Some (Dlfw.Optimizer.adam ()));
        ("checkpointed + SGD", true, None);
        ("checkpointed + Adam", true, Some (Dlfw.Optimizer.adam ()));
      ]
  in
  Pasta_util.Texttab.render ppf ~header
    ~align:[ Pasta_util.Texttab.Left; Right; Right ] rows;
  Format.fprintf ppf
    "(gradient checkpointing recovers the paper-scale training footprints; Adam adds 2x \
     parameter bytes of optimizer state)@.";

  section "Ablation: device trace-buffer size (BERT inference, CS-CPU, A100)";
  let header = [ "buffer"; "simulated total (s)" ] in
  let rows =
    List.map
      (fun buffer_bytes ->
        let device = Gpusim.Device.create Gpusim.Arch.a100 in
        let ctx = Dlfw.Ctx.create device in
        let s = Vendor.Sanitizer.attach device in
        Vendor.Sanitizer.patch_module s
          (Vendor.Sanitizer.Host_analysis
             {
               buffer_records = buffer_bytes / Gpusim.Costmodel.record_bytes;
               on_views = (fun _ _ -> ());
               per_record_us = Gpusim.Costmodel.sanitizer_host_per_record_us;
             });
        ignore (Runner.run_default ctx "BERT" ~mode:Runner.Inference);
        let t = Gpusim.Device.now_us device /. 1.0e6 in
        Vendor.Sanitizer.detach s;
        Dlfw.Ctx.destroy ctx;
        [ Format.asprintf "%a" Pasta_util.Bytesize.pp buffer_bytes;
          Printf.sprintf "%.1f" t ])
      [ 1 lsl 20; 4 lsl 20; 16 lsl 20; 64 lsl 20 ]
  in
  Pasta_util.Texttab.render ppf ~header ~align:[ Pasta_util.Texttab.Right; Right ] rows;

  section "Ablation: NVBit SASS dump+parse cost vs Sanitizer selective patching";
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let nv = Vendor.Nvbit.attach device in
  Vendor.Nvbit.instrument_memory nv ~on_views:(fun _ _ -> ()) ();
  ignore (Runner.run_default ctx "RN-18" ~mode:Runner.Inference);
  let p = Vendor.Nvbit.phases nv in
  Format.fprintf ppf
    "NVBit parsed %d distinct kernels; collect %.1f ms of which SASS dump/parse is the fixed per-function part@."
    (Vendor.Nvbit.functions_parsed nv)
    (p.Vendor.Phases.collect_us /. 1000.0);
  Vendor.Nvbit.detach nv;
  Dlfw.Ctx.destroy ctx;

  section "Ablation: sampling cap vs working-set accuracy (BERT inference, CS-CPU)";
  let header = [ "sample cap"; "WS (MB)"; "records seen" ] in
  let rows =
    List.map
      (fun cap ->
        let mc = MC.create ~variant:MC.Cpu_sanitizer () in
        let device = Gpusim.Device.create Gpusim.Arch.a100 in
        let ctx = Dlfw.Ctx.create device in
        let seen = ref 0 in
        let tool = MC.tool mc in
        let tool =
          { tool with Pasta.Tool.on_access = (fun i a -> incr seen; tool.Pasta.Tool.on_access i a) }
        in
        let session = Pasta.Session.attach ~sample_cap:cap ~tool device in
        ignore (Runner.run_default ctx "BERT" ~mode:Runner.Inference);
        let _ = Pasta.Session.detach session in
        let r = MC.result mc in
        Dlfw.Ctx.destroy ctx;
        [ string_of_int cap;
          Printf.sprintf "%.2f" (mb r.MC.ws_bytes);
          string_of_int !seen ])
      [ 4; 32; 128; 1024 ]
  in
  Pasta_util.Texttab.render ppf ~header
    ~align:[ Pasta_util.Texttab.Right; Right; Right ] rows

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenches.                                   *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  section "Bechamel: wall-clock microbenches of the core data paths";
  let open Bechamel in
  (* GPU-resident vs host-trace analysis over one identical kernel: the
     wall-clock version of the paper's central overhead claim. *)
  let mk_device () =
    let device = Gpusim.Device.create Gpusim.Arch.a100 in
    let a = Gpusim.Device.malloc device (8 * 1024 * 1024) in
    let kernel =
      Gpusim.Kernel.make ~name:"bench_kernel" ~grid:(Gpusim.Dim3.make 1024)
        ~block:(Gpusim.Dim3.make 256)
        ~regions:
          [
            Gpusim.Kernel.region ~base:a.Gpusim.Device_mem.base ~bytes:(4 * 1024 * 1024)
              ~accesses:1_000_000 ();
          ]
        ()
    in
    (device, kernel)
  in
  let gpu_mode () =
    let device, kernel = mk_device () in
    let s = Vendor.Sanitizer.attach device in
    let count = ref 0 in
    Vendor.Sanitizer.patch_module s
      (Vendor.Sanitizer.Device_analysis
         {
           map_bytes = (fun () -> 1024);
           device_fn = (fun _ r -> count := !count + r.Gpusim.Kernel.accesses);
           on_kernel_complete = (fun _ _ -> ());
         });
    fun () -> ignore (Gpusim.Device.launch device kernel)
  in
  let cpu_mode () =
    let device, kernel = mk_device () in
    Gpusim.Device.set_sample_cap device 4096;
    let s = Vendor.Sanitizer.attach device in
    let count = ref 0 in
    Vendor.Sanitizer.patch_module s
      (Vendor.Sanitizer.Host_analysis
         {
           buffer_records = Vendor.Sanitizer.default_buffer_records;
           on_views =
             (fun _ views ->
               List.iter
                 (fun v -> count := !count + Gpusim.Warp.batch_weight v.Gpusim.Warp.v_batch)
                 views);
           per_record_us = Gpusim.Costmodel.sanitizer_host_per_record_us;
         });
    fun () -> ignore (Gpusim.Device.launch device kernel)
  in
  let rng = Pasta_util.Det_rng.of_string "bench" in
  let objmap =
    let m = Pasta.Objmap.create () in
    for i = 0 to 999 do
      Pasta.Objmap.on_alloc m ~addr:(i * 65536) ~bytes:65536 ~managed:false
    done;
    m
  in
  let hist = Pasta_util.Histogram.create () in
  let kernel_for_sass =
    Gpusim.Kernel.make ~name:"sass_bench" ~grid:(Gpusim.Dim3.make 64)
      ~block:(Gpusim.Dim3.make 256)
      ~regions:
        [ Gpusim.Kernel.region ~base:0x1000 ~bytes:4096 ~accesses:4096 () ]
      ~flops:1.0e9 ()
  in
  let tests =
    [
      Test.make ~name:"analysis/gpu-resident-kernel" (Staged.stage (gpu_mode ()));
      Test.make ~name:"analysis/host-trace-kernel" (Staged.stage (cpu_mode ()));
      Test.make ~name:"objmap/resolve"
        (Staged.stage (fun () ->
             ignore (Pasta.Objmap.resolve objmap (Pasta_util.Det_rng.int rng (1000 * 65536)))));
      Test.make ~name:"histogram/add"
        (Staged.stage (fun () -> Pasta_util.Histogram.add hist "kernel_name"));
      Test.make ~name:"sass/dump+parse"
        (Staged.stage (fun () ->
             ignore (Gpusim.Sass.parse (Gpusim.Sass.dump kernel_for_sass))));
      Test.make ~name:"normalize/api-name"
        (Staged.stage (fun () -> ignore (Pasta.Normalize.canonical_api "cudaMemcpyAsync")));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (Test.make_grouped ~name:"pasta" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] |> List.sort compare in
  List.iter
    (fun name ->
      let est = Analyze.OLS.estimates (Hashtbl.find results name) in
      match est with
      | Some [ ns ] -> Format.fprintf ppf "%-40s %12.1f ns/run@." name ns
      | _ -> Format.fprintf ppf "%-40s (no estimate)@." name)
    names
(* ------------------------------------------------------------------ *)
(* Pipeline: batched parallel preprocessing vs per-record delivery.    *)
(* ------------------------------------------------------------------ *)

(* One BERT-inference run under fine-grained hotness; its value is the
   records the tool saw and its report.  [`Serial] is the per-record
   path: a CS-CPU tool with only [on_access], so the processor unpacks
   every buffered view into one event allocation, one dispatch and one
   [on_access] call per sampled record.  [`Parallel n] is the batched
   path: packed chunks, an [n]-domain device-side reduction, one merged
   summary per kernel. *)
let pipeline_run ~sample_cap kind () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS"
    (match kind with `Serial -> "1" | `Parallel n -> string_of_int n);
  let records = ref 0 in
  let tool =
    match kind with
    | `Serial ->
        (* Same unit of per-sample tool work as the hotness accumulator,
           so the comparison measures the delivery pipeline, not the tool. *)
        let samples = ref [] in
        {
          (Pasta.Tool.default ~fine_grained:Pasta.Tool.Cpu_sanitizer "hotness_serial") with
          Pasta.Tool.on_access =
            (fun _ a ->
              incr records;
              samples :=
                (a.Pasta.Event.addr / Pasta_tools.Hotness.block_bytes, a.Pasta.Event.weight)
                :: !samples);
          report =
            (fun ppf -> Format.fprintf ppf "serial: %d block samples" (List.length !samples));
        }
    | `Parallel _ ->
        let base = Pasta_tools.Hotness.tool_fine (Pasta_tools.Hotness.create ()) in
        {
          base with
          Pasta.Tool.on_device_summary =
            (fun info s ->
              records := !records + s.Pasta.Devagg.sampled_records;
              base.Pasta.Tool.on_device_summary info s);
        }
  in
  let run = fresh_run ~sample_cap ~iters:1 ~tool "BERT" Runner.Inference in
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  { run with value = (!records, report_text run) }

let pipeline_configs ~sample_cap =
  ("serial (per-record)", pipeline_run ~sample_cap `Serial)
  :: List.map
       (fun d ->
         ( Printf.sprintf "batched, %d domain%s" d (if d = 1 then "" else "s"),
           pipeline_run ~sample_cap (`Parallel d) ))
       [ 1; 2; 4; 8 ]

let pipeline () =
  section
    "Pipeline: per-record delivery vs batched parallel preprocessing (BERT inference, \
     fine-grained hotness)";
  let sample_cap = 4096 and reps = 9 in
  let stats = measure "pipeline" ~reps ~output:snd (pipeline_configs ~sample_cap) in
  let serial = List.hd stats and par = List.combine [ 1; 2; 4; 8 ] (List.tl stats) in
  let records s = fst (last s) in
  let rps s = float_of_int (records s) /. s.median_s in
  let speedup s = serial.median_s /. s.median_s in
  let sp d = speedup (List.assoc d par) in
  table [ "records"; "records/s"; "speedup" ]
    (List.map
       (fun s ->
         ( s,
           [
             string_of_int (records s);
             Printf.sprintf "%.2e" (rps s);
             Printf.sprintf "%.2fx" (speedup s);
           ] ))
       stats);
  (* The old 2-domain anomaly (2.06x vs 2.83x at 1 domain) was
     oversubscription: every extra domain past the hardware's parallelism
     just timeshares a core through the job mutex.  Domain_pool now claims
     guided blocks and clamps spawned workers to
     [Domain.recommended_domain_count], so extra requested domains can no
     longer make the pipeline slower. *)
  Format.fprintf ppf
    "@.%d reps per configuration; speedups from medians.@.2-domain scheduling (guided \
     claiming, pool clamped to %d-core hardware): %.2fx vs serial@."
    reps (Domain.recommended_domain_count ()) (sp 2);
  let digest = (List.assoc 1 par).digest in
  let deterministic = List.for_all (fun (_, s) -> s.digest = digest) par in
  Format.fprintf ppf "tool output %s across domain counts (md5 %s)@."
    (if deterministic then "byte-identical" else "DIVERGES")
    digest;
  (* Configurations past the core count run identical code once the pool
     clamps to the hardware, so speedup differences inside the batched
     configurations' noise floor are sampling error, not scheduling
     regressions: the monotonicity gate compares at that resolution. *)
  let noise = noise_floor (List.map snd par) in
  let within_noise = not (sp 8 < sp 4 *. (1.0 -. noise)) in
  let rec monotone = function
    | a :: (b :: _ as rest) -> speedup a <= speedup b && monotone rest
    | _ -> true
  in
  write_artifact "BENCH_pipeline.json" ~workload:"BERT-inference" ~reps ~noise_floor:noise
    [
      ("sample_cap", Int sample_cap);
      ("iters", Int 1);
      ( "configs",
        configs_json stats ~extra:(fun s ->
            [
              ("records", Int (records s));
              ("records_per_sec", num 1 (rps s));
              ("speedup_vs_serial", num 3 (speedup s));
            ]) );
      ("speedup_4_domains_vs_serial", num 3 (sp 4));
      ("speedup_8_domains_vs_serial", num 3 (sp 8));
      ("speedup_monotone_1_to_8", Bool (monotone (List.map snd par)));
      ("deterministic_across_domains", Bool deterministic);
    ];
  gate "pipeline" deterministic "parallel tool output diverges across domain counts";
  gate "pipeline" within_noise
    "8-domain speedup (%.2fx) below 4-domain speedup (%.2fx) beyond the %.1f%% measurement \
     noise floor"
    (sp 8) (sp 4) (100.0 *. noise);
  if within_noise && sp 8 < sp 4 then
    Format.fprintf ppf
      "8-domain speedup (%.2fx) within the %.1f%% noise floor of 4-domain (%.2fx); \
       configurations past the %d-core clamp run identical code@."
      (sp 8) (100.0 *. noise) (sp 4)
      (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)

(* Record/replay: a live simulate+analyze run, the same run with a trace
   capture riding along, and the recorded op stream re-driven through the
   same tool offline.  Replay skips simulation and instrumentation
   entirely and must reproduce the report byte for byte; the timings show
   what capture costs and whether replay beats a live run. *)

let replay () =
  section
    "Record/replay: live simulate+analyze vs offline trace replay (BERT \
     inference, fine-grained hotness)";
  let sample_cap = 4096 and reps = 3 in
  let path = Filename.temp_file "pasta_bench" ".ptrace" in
  let tool () = Pasta_tools.Hotness.tool_fine (Pasta_tools.Hotness.create ()) in
  let live capture () =
    let run = fresh_run ~sample_cap ~iters:1 ?capture ~tool:(tool ()) "BERT" Runner.Inference in
    { run with value = report_text run }
  in
  let offline () =
    let run = timed (fun () -> Pasta.Replay.run ~mode:Pasta.Ptrace.Strict ~tool:(tool ()) path) in
    { run with value = Format.asprintf "%t" run.value.Pasta.Replay.report }
  in
  (* Every recording run rewrites [path] with the same op stream; the
     replay reads whichever ran last. *)
  let stats =
    measure "replay" ~reps ~output:Fun.id
      [
        ("live (simulate+analyze)", live None);
        ("live + capture", live (Some path));
        ("replay (trace -> tool)", offline);
      ]
  in
  let live_s = List.hd stats and capture_s = List.nth stats 1 and replay_s = List.nth stats 2 in
  let trace = Pasta.Replay.stat path in
  Sys.remove path;
  let identical = String.equal capture_s.digest replay_s.digest in
  table [ "speedup vs live" ]
    (List.map
       (fun s -> (s, [ Printf.sprintf "%.2fx" (live_s.median_s /. s.median_s) ]))
       stats);
  Format.fprintf ppf "@.trace: %d ops, %d bytes, %d chunks; replay report %s live@."
    trace.Pasta.Replay.s_ops trace.s_bytes trace.s_chunks
    (if identical then "byte-identical to" else "DIVERGES from");
  write_artifact "BENCH_replay.json" ~workload:"BERT-inference" ~reps
    ~noise_floor:(noise_floor stats)
    [
      ("sample_cap", Int sample_cap);
      ("iters", Int 1);
      ("configs", configs_json stats);
      ( "trace",
        Obj
          [
            ("ops", Int trace.s_ops); ("bytes", Int trace.s_bytes); ("chunks", Int trace.s_chunks);
          ] );
      ("replay_speedup_vs_live", num 3 (live_s.median_s /. replay_s.median_s));
      ("capture_overhead_vs_live", num 3 (capture_s.median_s /. live_s.median_s));
      ("identical_reports", Bool identical);
    ]

(* ------------------------------------------------------------------ *)

(* Self-telemetry overhead: two workloads with the framework's own
   observability off / basic / full.  The batched pipeline hands the tool
   one device summary per kernel; the per-record path (NVBit-CPU
   memory_charact) hands it one on_event and one on_access per record,
   inside one tool frame per delivered batch.  The paper's low-overhead
   claim, applied to PASTA itself: basic (always-on attribution) must
   cost under 5% of the telemetry-off wall time on the batched pipeline,
   and at most 1.5x it on the per-record path. *)

let with_telemetry level f =
  Pasta.Config.set "ACCEL_PROF_TELEMETRY" level;
  Pasta.Telemetry.refresh_level ();
  Fun.protect
    ~finally:(fun () ->
      Pasta.Config.unset "ACCEL_PROF_TELEMETRY";
      Pasta.Telemetry.refresh_level ())
    f

let nvbit_records_run () =
  let tool = MC.tool (MC.create ~variant:MC.Cpu_nvbit ()) in
  let run = fresh_run ~sample_cap:2048 ~iters:1 ~tool "BERT" Runner.Inference in
  { run with value = (run.value.Pasta.Session.events_seen, report_text run) }

let telemetry () =
  let reps = 15 in
  let workloads =
    [
      ( "BERT-inference-batched-4dom",
        "batched hotness, 4 domains",
        4096,
        pipeline_run ~sample_cap:4096 (`Parallel 4),
        ("basic_overhead < 0.05", fun ratio -> ratio -. 1.0 < 0.05) );
      ( "BERT-inference-nvbit-records",
        "per-record memory_charact_nvbit_cpu",
        2048,
        nvbit_records_run,
        ("basic_overhead <= 0.5", fun ratio -> ratio <= 1.5) );
    ]
  in
  let measured =
    List.map
      (fun (name, describe, sample_cap, run, (gate_text, gate_ok)) ->
        section
          (Printf.sprintf
             "Self-telemetry overhead: off vs basic vs full (BERT inference, %s)" describe);
        let stats =
          measure "telemetry" ~reps ~output:snd
            (List.map
               (fun level -> (level, fun () -> with_telemetry level run))
               [ "off"; "basic"; "full" ])
        in
        let off = List.hd stats and basic = List.nth stats 1 and full = List.nth stats 2 in
        (* A level's overhead is the median over rounds of its wall time
           over the same round's [off] wall time: the runs of one round are
           adjacent in time, so the ratio cancels the machine's drift, and
           the median drops the round a neighbour's burst landed in. *)
        let ratio s = Pasta_util.Stats.percentile (Array.map2 ( /. ) s.walls off.walls) 50.0 in
        table [ "vs off" ] (List.map (fun s -> (s, [ Printf.sprintf "%.2fx" (ratio s) ])) stats);
        let identical = List.for_all (fun s -> String.equal s.digest off.digest) stats in
        let ok = gate_ok (ratio basic) in
        Format.fprintf ppf
          "@.tool output %s across telemetry levels; gate %s: %s; attribution (full \
           run):@.%s@."
          (if identical then "byte-identical" else "DIVERGES")
          gate_text
          (if ok then "ok" else "FAIL")
          (with_telemetry "full" (fun () ->
               Format.asprintf "%a" Pasta.Telemetry.pp_attribution full.attribution));
        gate "telemetry" ok "%s: %s (basic %.2fx off)" name gate_text (ratio basic);
        ( Njson.Obj
            [
              ("workload", Str name);
              ("sample_cap", Int sample_cap);
              ("iters", Int 1);
              ("records", Int (fst (last off)));
              ("configs", configs_json stats);
              ("basic_overhead", num 4 (ratio basic -. 1.0));
              ("full_overhead", num 4 (ratio full -. 1.0));
              ("identical_reports", Bool identical);
              ("gate", Str gate_text);
              ("gate_ok", Bool ok);
            ],
          stats ))
      workloads
  in
  write_artifact "BENCH_telemetry.json" ~workload:"BERT-inference" ~reps
    ~noise_floor:(noise_floor (List.concat_map snd measured))
    [ ("workloads", List (List.map fst measured)) ]

(* ------------------------------------------------------------------ *)

(* Sampling: overhead vs estimate-error tradeoff at fixed rates and
   under the adaptive governor.  Fine-grained hotness over BERT
   inference; per-block heat comes straight from the weighted Devagg
   summaries, so sampled runs report inverse-probability estimates.
   Overhead is the telemetry attribution fraction — the same signal the
   governor steers on — which keeps the budget gate meaningful even
   though the simulated workload is wall-clock cheap. *)

type sampling_run = {
  s_frac : float;  (* framework self-time fraction over the run's window *)
  s_records : int;  (* records that actually crossed the pipeline *)
  s_heat : (int, float) Hashtbl.t;  (* absolute 2 MiB block -> weighted heat *)
  s_snapshot : Pasta.Sampler.snapshot option;  (* sampling state at detach *)
  s_report : string;
}

let sampling_run ~sample_cap spec () =
  let heat = Hashtbl.create 512 in
  let records = ref 0 in
  let base = Pasta_tools.Hotness.tool_fine (Pasta_tools.Hotness.create ()) in
  let tool =
    {
      base with
      Pasta.Tool.on_device_summary =
        (fun info s ->
          records := !records + s.Pasta.Devagg.sampled_records;
          List.iter
            (fun (b, c) ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt heat b) in
              Hashtbl.replace heat b (prev +. float_of_int c))
            s.Pasta.Devagg.blocks;
          base.Pasta.Tool.on_device_summary info s);
    }
  in
  let sample_rate, overhead_budget =
    match spec with
    | `Exact -> (None, None)
    | `Fixed r -> (Some r, None)
    | `Auto budget -> (None, Some budget)
  in
  let run =
    fresh_run ~sample_cap ~iters:1 ?sample_rate ?overhead_budget ~tool "BERT" Runner.Inference
  in
  (* The framework's share is all the window did not charge to the
     simulate/workload root. *)
  let a = run.attribution in
  let root =
    List.fold_left
      (fun acc r ->
        if r.Pasta.Telemetry.row_label = "simulate + workload" then r.row_self_us else acc)
      0.0 a.at_rows
  in
  {
    run with
    value =
      {
        s_frac = (if a.at_total_us > 0.0 then 1.0 -. (root /. a.at_total_us) else 0.0);
        s_records = !records;
        s_heat = heat;
        s_snapshot = run.value.Pasta.Session.health.Pasta.Session.sampling;
        s_report = report_text run;
      };
  }

let top_blocks ?(n = 10) heat =
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) heat []
  |> List.sort (fun (b1, c1) (b2, c2) ->
         match compare c2 c1 with 0 -> compare b1 b2 | c -> c)
  |> List.filteri (fun i _ -> i < n)
  |> List.map fst

(* Does [heat]'s top-10 match the exact run's top-10 ranking, up to ties
   in the exact data?  Blocks whose true heat is within 1% of the exact
   rank-10 value are interchangeable — which of them a sampled run ranks
   10th vs 11th is noise, not error.  The ranking matches when no block
   strictly hotter than that tie band is missing from the sampled top-10
   and no block outside the band intrudes into it. *)
let top10_matches ~exact heat =
  let exact_heat b = Option.value ~default:0.0 (Hashtbl.find_opt exact b) in
  match List.rev (top_blocks exact) with
  | [] -> Hashtbl.length heat = 0
  | b10 :: _ ->
      let h10 = exact_heat b10 in
      let sampled = top_blocks heat in
      let no_intruder = List.for_all (fun b -> exact_heat b >= 0.99 *. h10) sampled in
      let none_missed =
        Hashtbl.fold
          (fun b c acc -> acc && (c <= 1.01 *. h10 || List.mem b sampled))
          exact true
      in
      no_intruder && none_missed

(* Relative L1 error of the weighted block estimates against the exact
   (rate 1.0) run, over the union of observed blocks. *)
let est_error ~exact heat =
  let union = Hashtbl.copy exact in
  Hashtbl.iter
    (fun b _ -> if not (Hashtbl.mem union b) then Hashtbl.replace union b 0.0)
    heat;
  let num = ref 0.0 and den = ref 0.0 in
  Hashtbl.iter
    (fun b ex ->
      let es = Option.value ~default:0.0 (Hashtbl.find_opt heat b) in
      num := !num +. Float.abs (es -. ex);
      den := !den +. Float.abs ex)
    union;
  if !den > 0.0 then !num /. !den else 0.0

let sampling () =
  section
    "Sampling: overhead vs estimate error at rates 1.0/0.5/0.1 and under the \
     governor (BERT inference, fine hotness)";
  let sample_cap = 4096 and reps = 3 and budget = 0.35 in
  let auto = Printf.sprintf "auto (budget %.0f%%)" (100.0 *. budget) in
  let stats =
    measure "sampling" ~reps
      ~output:(fun r -> r.s_report)
      ~checked:(fun name -> name <> auto)
      [
        ("exact (rate 1.0)", sampling_run ~sample_cap `Exact);
        ("fixed 0.5", sampling_run ~sample_cap (`Fixed 0.5));
        ("fixed 0.1", sampling_run ~sample_cap (`Fixed 0.1));
        (auto, sampling_run ~sample_cap (`Auto budget));
      ]
  in
  (* A configuration's fastest rep stands for it; its overhead is the
     median over its reps. *)
  let fastest s =
    let best = ref 0 in
    Array.iteri (fun i w -> if w < s.walls.(!best) then best := i) s.walls;
    s.values.(!best)
  in
  let frac s = Pasta_util.Stats.percentile (Array.map (fun r -> r.s_frac) s.values) 50.0 in
  let rate r = match r.s_snapshot with Some sn -> sn.Pasta.Sampler.sn_rate | None -> 1.0 in
  let exact = fastest (List.hd stats) and auto_s = List.nth stats 3 in
  let exact_top = top_blocks exact.s_heat in
  let overlap heat =
    List.length (List.filter (fun b -> List.mem b (top_blocks heat)) exact_top)
  in
  table
    [ "rate"; "records"; "self-time"; "est err"; "top-10" ]
    (List.map
       (fun s ->
         let r = fastest s in
         ( s,
           [
             Printf.sprintf "%.2f" (rate r);
             string_of_int r.s_records;
             Printf.sprintf "%.1f%%" (100.0 *. frac s);
             Printf.sprintf "%.3f" (est_error ~exact:exact.s_heat r.s_heat);
             Printf.sprintf "%d/10" (overlap r.s_heat);
           ] ))
       stats);
  let auto_r = fastest auto_s and auto_frac = frac auto_s in
  Option.iter (Format.fprintf ppf "governor: %a@." Pasta.Sampler.pp_snapshot) auto_r.s_snapshot;
  let auto_within = auto_frac <= budget +. 0.01 in
  let top_match = top10_matches ~exact:exact.s_heat auto_r.s_heat in
  write_artifact "BENCH_sampling.json" ~workload:"BERT-inference-fine-hotness" ~reps
    ~noise_floor:(noise_floor stats)
    [
      ("sample_cap", Int sample_cap);
      ("iters", Int 1);
      ("budget", num 2 budget);
      ( "configs",
        configs_json stats ~extra:(fun s ->
            let r = fastest s in
            [
              ("rate", num 3 (rate r));
              ("records", Int r.s_records);
              ("overhead_frac", num 4 (frac s));
              ("est_error", num 4 (est_error ~exact:exact.s_heat r.s_heat));
              ("top10_overlap", Int (overlap r.s_heat));
              ("top10_match", Bool (top10_matches ~exact:exact.s_heat r.s_heat));
            ]) );
      ("auto_overhead_frac", num 4 auto_frac);
      ("auto_within_budget", Bool auto_within);
      ("auto_top10_matches_exact", Bool top_match);
    ];
  gate "sampling" auto_within "governed overhead %.1f%% exceeds the %.0f%% budget (+1pp)"
    (100.0 *. auto_frac) (100.0 *. budget);
  gate "sampling" top_match "governed top-10 hot blocks diverge from the exact run"

(* ------------------------------------------------------------------ *)

(* Fleet aggregation: tree reduction (fanout 8, domain pool) vs flat
   concat (one merge node over every leaf) as the device count grows.
   Leaves are synthesized by scaling one real per-shard summary, so the
   bench times only the aggregation — the claim under test is that the
   failure-aware tree's wall time grows sublinearly from 64 to 512
   devices while the flat baseline grows linearly, with and without
   injected merge-node corruption. *)

let fleet_leaf_summary () =
  let device = Gpusim.Device.create ~seed:42L Gpusim.Arch.a100 in
  let acc = ref [] in
  let tool =
    {
      (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_parallel "fleet-bench") with
      Pasta.Tool.on_device_summary = (fun _ s -> acc := s :: !acc);
    }
  in
  let (), _ =
    Pasta.Session.run ~tool device (fun () ->
        let buf = Gpusim.Device.malloc device (4 * 1024 * 1024) in
        for _ = 1 to 3 do
          ignore
            (Gpusim.Device.launch device
               (Gpusim.Kernel.make ~name:"fleet_bench_kernel"
                  ~grid:(Gpusim.Dim3.make 64) ~block:(Gpusim.Dim3.make 128)
                  ~regions:
                    [
                      Gpusim.Kernel.region ~base:buf.Gpusim.Device_mem.base
                        ~bytes:(1 lsl 20) ~accesses:20_000 ();
                    ]
                  ()))
        done)
  in
  Pasta.Devagg.merge_summaries (List.rev !acc)

(* Uniform integer scaling keeps every Devagg.validate invariant (weights
   still sum to the total), so scaled clones stand in for distinct
   devices without running 512 sessions. *)
let scale_summary k s =
  {
    s with
    Pasta.Devagg.objects =
      List.map (fun (o, w) -> (o, w * k)) s.Pasta.Devagg.objects;
    blocks = List.map (fun (b, c) -> (b, c * k)) s.Pasta.Devagg.blocks;
    sampled_records = s.Pasta.Devagg.sampled_records * k;
    true_accesses = s.Pasta.Devagg.true_accesses * k;
    writes = s.Pasta.Devagg.writes * k;
  }

let fleet_bench () =
  section
    "Fleet aggregation: failure-aware tree reduction vs flat concat, 64..512 \
     devices";
  let base = fleet_leaf_summary () in
  let fanout = 8 and seed = 0x5eedL and reps = 5 and sizes = [ 64; 128; 256; 512 ] in
  let pool = Pasta_util.Domain_pool.global ~size:(Pasta.Config.domains ()) in
  (* A reduction's value: the leaves it dropped, and what it merged. *)
  let merged run summary dropped =
    let accesses = Option.fold ~none:0 ~some:(fun s -> s.Pasta.Devagg.true_accesses) summary in
    { run with value = (dropped, Printf.sprintf "%d accesses, %d dropped" accesses dropped) }
  in
  let tree ?rates leaves () =
    let run = timed (fun () -> Pasta.Fleet.reduce ~pool ?rates ~seed ~fanout leaves) in
    merged run run.value.Pasta.Fleet.red_summary
      (List.fold_left (fun acc (_, ds) -> acc + List.length ds) 0 run.value.red_dropped)
  in
  let flat summaries () =
    let run = timed (fun () -> Pasta.Fleet.flat_merge summaries) in
    merged run run.value 0
  in
  let name kind n = Printf.sprintf "%s, %d devices" kind n in
  let configs n =
    let leaves = Array.init n (fun d -> Some (scale_summary (1 + (d mod 7)) base)) in
    let summaries = List.filter_map Fun.id (Array.to_list leaves) in
    [
      (name "tree" n, tree leaves);
      (name "tree+faults" n, tree ~rates:Gpusim.Faults.default_fleet_rates leaves);
      (name "flat" n, flat summaries);
    ]
  in
  let stats = measure "fleet" ~reps ~output:snd (List.concat_map configs sizes) in
  table [ "dropped" ] (List.map (fun s -> (s, [ string_of_int (fst (last s)) ])) stats);
  let at kind n = List.find (fun s -> s.name = name kind n) stats in
  let growth kind = (at kind 512).min_s /. (at kind 64).min_s in
  (* 64 -> 512 is an 8x device growth: the tree is sublinear when its
     best wall time grows by less than that factor. *)
  let sublinear = growth "tree" < 8.0 in
  Format.fprintf ppf
    "@.64 -> 512 devices: tree wall grows %.2fx, flat grows %.2fx (%s)@."
    (growth "tree") (growth "flat")
    (if sublinear then "tree sublinear" else "tree NOT sublinear");
  write_artifact "BENCH_fleet.json" ~workload:"scaled-leaf-summaries" ~reps
    ~noise_floor:(noise_floor stats)
    [
      ("fanout", Int fanout);
      ("pool_domains", Int (Pasta_util.Domain_pool.size pool));
      ("configs", configs_json stats);
      ("devices", List (List.map (fun n -> Njson.Int n) sizes));
      ( "dropped_with_faults",
        List (List.map (fun n -> Njson.Int (fst (last (at "tree+faults" n)))) sizes) );
      ("growth_tree_64_to_512", num 3 (growth "tree"));
      ("growth_flat_64_to_512", num 3 (growth "flat"));
      ("tree_sublinear", Bool sublinear);
    ];
  gate "fleet" sublinear "tree aggregation wall time grew %.2fx over an 8x device growth"
    (growth "tree")

(* ------------------------------------------------------------------ *)

(* Serve: the multi-tenant daemon under a saturating mixed load.  Four
   clean tenants (mixed models, tools and knob overlays) plus one chaos
   tenant whose tool throws on every kernel end, with enough jobs
   in flight to keep every executor thread busy end to end.  Reported:
   sustained jobs/sec and the client-observed submit-to-done latency
   distribution (p50/p90/p99).  Gated: every clean tenant's served
   results are byte-identical to its solo run, and the chaos tenant's
   quarantines leave the clean tenants untouched.  One throughput run,
   so it takes no reps. *)

module Srv = Pasta.Serve

let serve_spec ~tenant ~model ~tool ?(knobs = []) () =
  {
    Srv.Proto.tenant;
    model;
    tool = Some tool;
    train = false;
    iters = Some 1;
    gpu = "a100";
    knobs;
    deadline_us = None;
    trace = None;
  }

(* The in-process reference a served job must reproduce byte for byte:
   same overlay, fresh device, fresh ctx, same Session plumbing. *)
let serve_solo (s : Srv.Proto.submit) =
  Pasta.Config.with_overlay s.Srv.Proto.knobs (fun () ->
      let tool = (Option.get (Pasta.Registry.find (Option.get s.Srv.Proto.tool))) () in
      Gpusim.Hostctx.clear ();
      let run = fresh_run ?iters:s.Srv.Proto.iters ~tool s.Srv.Proto.model Runner.Inference in
      (report_text run, Pasta_util.Metric.counter_samples run.value.Pasta.Session.metrics))

let serve_bench () =
  section
    "Serve: sustained throughput and tail latency, saturating multi-tenant \
     load";
  Pasta_tools.Tools.register_all ();
  Pasta.Registry.register "serve_bench_bomb" (fun () ->
      {
        (Pasta.Tool.default "serve_bench_bomb") with
        Pasta.Tool.on_kernel_end = (fun _ _ -> failwith "boom");
        report = (fun ppf -> Format.fprintf ppf "bomb report@.");
      });
  let clean_tenants =
    [
      serve_spec ~tenant:"alpha" ~model:"AN" ~tool:"kernel_freq" ();
      serve_spec ~tenant:"beta" ~model:"RN-18" ~tool:"op_summary" ();
      serve_spec ~tenant:"gamma" ~model:"AN" ~tool:"hotness"
        ~knobs:[ ("ACCEL_PROF_SAMPLE_RATE", "0.5") ] ();
      serve_spec ~tenant:"delta" ~model:"AN" ~tool:"kernel_freq"
        ~knobs:[ ("ACCEL_PROF_BUFFER_CAP", "64") ] ();
    ]
  in
  let chaos =
    serve_spec ~tenant:"chaos" ~model:"AN" ~tool:"serve_bench_bomb"
      ~knobs:
        [ ("ACCEL_PROF_INJECT_FAULTS", "1"); ("ACCEL_PROF_FAULT_SEED", "24285") ]
      ()
  in
  let solo_refs =
    List.map (fun s -> (s.Srv.Proto.tenant, serve_solo s)) clean_tenants
  in
  let workers = 4 and jobs_per_tenant = 5 in
  let specs =
    List.concat_map
      (fun s -> List.init jobs_per_tenant (fun _ -> s))
      (chaos :: clean_tenants)
  in
  let n = List.length specs in
  let t = Srv.create ~workers ~capacity:(2 * n) ~quota:n () in
  let mu = Mutex.create () in
  let latencies = ref [] and results = ref [] in
  let t0 = Unix.gettimeofday () in
  (* One waiter thread per job: the latency observed here is what a
     socket client would see, submit call to result availability. *)
  let waiters =
    List.filter_map
      (fun s ->
        let submitted = Unix.gettimeofday () in
        match Srv.submit t s with
        | Error e ->
            gate "serve" false "submit rejected (%s)" e;
            None
        | Ok id ->
            Some
              (Thread.create
                 (fun () ->
                   let outcome = Srv.wait ~timeout_s:300.0 t id in
                   let lat = (Unix.gettimeofday () -. submitted) *. 1e6 in
                   Mutex.lock mu;
                   latencies := lat :: !latencies;
                   results := (s, outcome) :: !results;
                   Mutex.unlock mu)
                 ()))
      specs
  in
  List.iter Thread.join waiters;
  let wall = Unix.gettimeofday () -. t0 in
  Srv.shutdown t;
  let jobs_per_sec = float_of_int n /. wall in
  let lat = Pasta_util.Stats.summarize (Array.of_list !latencies) in
  let by_tenant tenant =
    List.filter (fun (s, _) -> s.Srv.Proto.tenant = tenant) !results
  in
  let clean_rows =
    List.map
      (fun s ->
        let tenant = s.Srv.Proto.tenant in
        let expected = List.assoc tenant solo_refs in
        let jobs = by_tenant tenant in
        let identical =
          jobs <> []
          && List.for_all
               (fun (_, o) ->
                 match o with
                 | Some (Srv.Completed sum) ->
                     sum.Srv.report = fst expected
                     && sum.Srv.counters = snd expected
                     && sum.Srv.quarantines = 0
                 | _ -> false)
               jobs
        in
        (tenant, List.length jobs, identical))
      clean_tenants
  in
  let chaos_jobs = by_tenant "chaos" in
  let chaos_quarantined =
    chaos_jobs <> []
    && List.for_all
         (fun (_, o) ->
           match o with
           | Some (Srv.Completed sum) -> sum.Srv.quarantines > 0
           | _ -> false)
         chaos_jobs
  in
  let identical_to_solo = List.for_all (fun (_, _, ok) -> ok) clean_rows in
  Pasta_util.Texttab.render ppf
    ~header:[ "tenant"; "jobs"; "byte-identical to solo" ]
    ~align:[ Pasta_util.Texttab.Left; Right; Left ]
    (List.map
       (fun (tenant, jobs, ok) ->
         [ tenant; string_of_int jobs; (if ok then "yes" else "NO") ])
       clean_rows
    @ [
        [
          "chaos";
          string_of_int (List.length chaos_jobs);
          (if chaos_quarantined then "- (quarantined)" else "NOT quarantined");
        ];
      ]);
  Format.fprintf ppf
    "@.%d jobs, %d workers: %.3f s wall, %.1f jobs/s; latency p50 %.0f us, \
     p90 %.0f us, p99 %.0f us@."
    n workers wall jobs_per_sec lat.Pasta_util.Stats.median
    lat.Pasta_util.Stats.p90 lat.Pasta_util.Stats.p99;
  let tenant tenant jobs (key, ok) =
    Njson.Obj [ ("tenant", Str tenant); ("jobs", Int jobs); (key, Bool ok) ]
  in
  write_artifact "BENCH_serve.json" ~workload:"mixed-tenant" ~reps:1
    [
      ("workers", Int workers);
      ("tenants", Int (1 + List.length clean_tenants));
      ("jobs", Int n);
      ("jobs_per_tenant", Int jobs_per_tenant);
      ("wall_s", num 3 wall);
      ("jobs_per_sec", num 1 jobs_per_sec);
      ("p50_latency_us", num 0 lat.median);
      ("p90_latency_us", num 0 lat.p90);
      ("p99_latency_us", num 0 lat.p99);
      ("max_latency_us", num 0 lat.max);
      ( "tenants_detail",
        List
          (List.map (fun (t, jobs, ok) -> tenant t jobs ("identical", ok)) clean_rows
          @ [ tenant "chaos" (List.length chaos_jobs) ("quarantined", chaos_quarantined) ]) );
      ("identical_to_solo", Bool identical_to_solo);
      ("fault_containment", Bool (chaos_quarantined && identical_to_solo));
    ];
  gate "serve" identical_to_solo "a tenant's served results diverge from its solo run";
  gate "serve" chaos_quarantined "the chaos tenant's tool was not quarantined"

(* ------------------------------------------------------------------ *)

(* Region instrumentation: overhead at off/coarse/fine plus the
   zero-perturbation guarantee.  Region probes never advance the device
   clock and ride the existing event bus, so a tool that ignores region
   events must produce byte-identical output whether instrumentation is
   off or fine — the only cost is the wall-clock of emitting and
   dispatching the probes, which is the overhead under test. *)

let regions_run ~sample_cap ?granularity tool =
  Option.iter (Pasta.Config.set "ACCEL_PROF_REGIONS") granularity;
  let run = fresh_run ~sample_cap ~iters:1 ~tool "BERT" Runner.Inference in
  Pasta.Config.unset "ACCEL_PROF_REGIONS";
  run

let regions_bench ~reps ~sample_cap () =
  section
    "Regions: instrumentation overhead at off/coarse/fine and output identity \
     for region-blind tools (BERT inference, fine hotness)";
  let hotness granularity () =
    let run =
      regions_run ~sample_cap ?granularity
        (Pasta_tools.Hotness.tool_fine (Pasta_tools.Hotness.create ()))
    in
    { run with value = report_text run }
  in
  let stats =
    measure "regions" ~reps ~output:Fun.id
      [
        ("off", hotness None); ("coarse", hotness (Some "coarse")); ("fine", hotness (Some "fine"));
      ]
  in
  let off = List.hd stats and fine = List.nth stats 2 in
  let overhead s = (s.median_s -. off.median_s) /. off.median_s in
  table [ "overhead vs off" ]
    (List.map (fun s -> (s, [ Printf.sprintf "%+.1f%%" (100.0 *. overhead s) ])) stats);
  let identical = List.for_all (fun s -> String.equal s.digest off.digest) stats in
  let noise = noise_floor stats and budget = 0.25 in
  Format.fprintf ppf
    "@.region-blind tool output %s across off/coarse/fine; overhead budget \
     %.0f%%, noise floor %.1f%%@."
    (if identical then "byte-identical" else "DIVERGES")
    (100.0 *. budget) (100.0 *. noise);
  (* One instrumented pass under the region consumers, so the artifact
     records that the probes actually land: every kernel's region rows
     must sum to its wall time bit-for-bit. *)
  let lat = Pasta_tools.Region_latency.create () in
  ignore (regions_run ~sample_cap ~granularity:"fine" (Pasta_tools.Region_latency.tool lat));
  let totals = Pasta_tools.Region_latency.totals lat in
  let kernels = List.length totals in
  let exact = List.length (List.filter (fun (_, wall, sum) -> sum = wall) totals) in
  Format.fprintf ppf
    "fine instrumentation: %d/%d kernels with bit-exact region partitions@." exact kernels;
  write_artifact "BENCH_regions.json" ~workload:"BERT-inference-fine-hotness" ~reps
    ~noise_floor:noise
    [
      ("sample_cap", Int sample_cap);
      ("iters", Int 1);
      ("configs", configs_json stats ~extra:(fun s -> [ ("overhead_frac", num 4 (overhead s)) ]));
      ("overhead_frac_coarse", num 4 (overhead (List.nth stats 1)));
      ("overhead_frac_fine", num 4 (overhead fine));
      ("overhead_budget", num 2 budget);
      ("kernels", Int kernels);
      ("kernels_exact_partition", Int exact);
      ("identical_with_regions_off", Bool identical);
    ];
  gate "regions" identical "region-blind tool output changes when instrumentation is enabled";
  gate "regions" (exact = kernels) "only %d/%d kernels have bit-exact region partitions" exact
    kernels;
  gate "regions"
    (not (overhead fine > budget +. noise))
    "fine-grained overhead %.1f%% exceeds the %.0f%% budget beyond the %.1f%% noise floor"
    (100.0 *. overhead fine) (100.0 *. budget) (100.0 *. noise)

let regions () = regions_bench ~reps:7 ~sample_cap:4096 ()

(* ------------------------------------------------------------------ *)

(* Heterogeneous multi-backend sessions: one session hosting a CUDA
   sanitizer, an OpenCL platform and a TPU xprof backend at once, vs the
   sum of three solo sessions over the same per-device workloads.  The
   wall-clock comparison is informational; the gates are semantic:

   - each backend's report from the mixed session must be byte-identical
     to its solo report (interleaving three clock domains onto one
     timeline must not change any backend's analysis), and
   - replaying the shared mixed-backend [.ptrace] capture must reproduce
     every backend's live report byte for byte. *)

let hetero_arches =
  [
    (Pasta.Backend.Sanitizer, Gpusim.Arch.a100);
    (Pasta.Backend.Opencl, Gpusim.Arch.mi300x);
    (Pasta.Backend.Xprof, Gpusim.Arch.tpu_v4);
  ]

(* Coarse kernel-frequency tool: the one analysis model every backend
   (including the instrumentation-free TPU) supports. *)
let hetero_tool () =
  Pasta_tools.Kernel_freq.tool (Pasta_tools.Kernel_freq.create ())

let hetero_workload device =
  let ctx = Dlfw.Ctx.create device in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters:1;
  Dlfw.Ctx.destroy ctx

(* One session over [arches], one device each; a one-element list is a
   solo session.  Its value is each backend's report. *)
let hetero_run ?capture arches () =
  let specs = List.mapi (fun i (k, a) -> (k, Gpusim.Device.create ~id:i a)) arches in
  let run =
    timed (fun () ->
        Pasta.Session.run_multi ?capture
          ~tool:(fun _ _ -> hetero_tool ())
          specs
          (fun () -> List.iter (fun (_, d) -> hetero_workload d) specs))
  in
  let _, mr = run.value in
  {
    run with
    value =
      List.map
        (fun (_, r) -> Format.asprintf "%t" r.Pasta.Session.report)
        mr.Pasta.Session.mr_backends;
  }

let hetero_bench () =
  section
    "Heterogeneous sessions: one mixed-backend session (sanitizer + opencl + \
     xprof) vs the sum of solo sessions (BERT inference, kernel_freq)";
  let reps = 3 in
  let path = Filename.temp_file "pasta_hetero" ".ptrace" in
  let solo (kind, arch) =
    (Pasta.Backend.kind_to_string kind ^ " solo", hetero_run [ (kind, arch) ])
  in
  let stats =
    measure "hetero" ~reps ~output:(String.concat "")
      (List.map solo hetero_arches @ [ ("mixed session", hetero_run hetero_arches) ])
  in
  let solos = List.filteri (fun i _ -> i < 3) stats and mixed = List.nth stats 3 in
  let solo_sum = List.fold_left (fun acc s -> acc +. s.median_s) 0.0 solos in
  (* the gating run also records the shared mixed-backend trace *)
  let reports = (hetero_run ~capture:path hetero_arches ()).value in
  let identical_per_backend = List.concat_map last solos = reports in
  let o =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict ~tool:(fun _ -> hetero_tool ()) path
  in
  let replay_identical =
    List.map (fun (_, _, report) -> Format.asprintf "%t" report) o.Pasta.Replay.backends
    = reports
  in
  let trace = Pasta.Replay.stat path in
  Sys.remove path;
  table [] (List.map (fun s -> (s, [])) stats);
  Format.fprintf ppf
    "solo sum: %.3f ms median@.@.mixed trace: %d ops, %d bytes, %d chunks across %d \
     backends@.per-backend reports %s solo; replay %s live@."
    (1000.0 *. solo_sum) trace.Pasta.Replay.s_ops trace.s_bytes trace.s_chunks
    (List.length reports)
    (if identical_per_backend then "byte-identical to" else "DIVERGE from")
    (if replay_identical then "byte-identical to" else "DIVERGES from");
  write_artifact "BENCH_hetero.json" ~workload:"BERT-inference" ~reps
    ~noise_floor:(noise_floor stats)
    [
      ( "backends",
        List (List.map (fun (k, _) -> Njson.Str (Pasta.Backend.kind_to_string k)) hetero_arches)
      );
      ("configs", configs_json stats);
      ("solo_sum_wall_median_s", num 6 solo_sum);
      ("mixed_vs_solo_sum", num 3 (mixed.median_s /. solo_sum));
      ( "trace",
        Obj
          [
            ("ops", Int trace.s_ops); ("bytes", Int trace.s_bytes); ("chunks", Int trace.s_chunks);
          ] );
      ("identical_per_backend", Bool identical_per_backend);
      ("replay_identical", Bool replay_identical);
    ];
  gate "hetero" identical_per_backend
    "a backend's report changes when it shares a session with other backends";
  gate "hetero" replay_identical
    "mixed-backend trace replay diverges from the live per-backend reports"

(* Tiny divergence gate for `dune build @perf-smoke` (part of runtest):
   the batched path must see exactly the records the per-record path
   sees, and its output must not depend on the domain count. *)
let pipeline_smoke () =
  let stats = measure "perf-smoke" ~reps:1 ~output:snd (pipeline_configs ~sample_cap:64) in
  let records s = fst (last s) in
  let serial = List.hd stats and par = List.tl stats in
  let digest = (List.hd par).digest in
  let same_digest = List.for_all (fun s -> String.equal s.digest digest) par in
  let same_records = List.for_all (fun s -> records s = records serial) par in
  gate "perf-smoke" same_digest "parallel tool output diverges across domain counts";
  gate "perf-smoke" same_records "record counts diverge (serial %d vs parallel %s)"
    (records serial)
    (String.concat "/" (List.map (fun s -> string_of_int (records s)) par));
  if same_digest && same_records then
    Format.fprintf ppf
      "perf-smoke: OK - %d records, identical output at 1/2/4/8 domains (md5 %s)@."
      (records serial) digest

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig7", fig7);
    ("tablev", tablev);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("instr", instr);
    ("ablation", ablation);
    ("bechamel", bechamel_benches);
    ("pipeline", pipeline);
    ("replay", replay);
    ("telemetry", telemetry);
    ("sampling", sampling);
    ("fleet", fleet_bench);
    ("serve", serve_bench);
    ("regions", regions);
    ("hetero", hetero_bench);
  ]

(* The test-suite gates: not listed, and not part of a full run. *)
let smoke_tests =
  [
    ("pipeline-smoke", pipeline_smoke);
    ("regions-smoke", regions_bench ~reps:7 ~sample_cap:512);
  ]

(* Run one experiment, optionally capturing its output into
   <dir>/<name>.txt like the artifact's results/ tree. *)
let run_experiment ~out (name, f) =
  match out with
  | None -> f ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".txt") in
      let oc = open_out path in
      let file_ppf = Format.formatter_of_out_channel oc in
      let saved = !out_ppf in
      Format.pp_print_flush ppf ();
      out_ppf := file_ppf;
      Fun.protect
        ~finally:(fun () ->
          Format.pp_print_flush ppf ();
          Format.pp_print_flush file_ppf ();
          close_out oc;
          out_ppf := saved;
          Format.fprintf saved "wrote %s@." path)
        f

let () =
  (* The simulated workloads allocate heavily, and every minor collection
     is a stop-the-world handshake across all domains — including parked
     pool workers.  A larger minor heap keeps the GC out of the
     measurements for serial and parallel configurations alike. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--") in
  let out, args =
    match args with
    | "--out" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        (Some dir, rest)
    | args -> (None, args)
  in
  (match args with
  | [] -> List.iter (run_experiment ~out) experiments
  | [ "list" ] -> List.iter (fun (name, _) -> Format.fprintf ppf "%s@." name) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name (experiments @ smoke_tests) with
          | Some f -> run_experiment ~out (name, f)
          | None ->
              Format.fprintf ppf "unknown experiment %s (try 'list')@." name;
              failed := true)
        names);
  Format.pp_print_flush ppf ();
  if !failed then exit 1
