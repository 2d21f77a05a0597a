(* Evaluation harness: regenerates every table and figure of the paper's
   evaluation section (PASTA, CGO 2026) on the simulated substrate, plus
   wall-clock Bechamel microbenches and ablations.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig9    -- one experiment
     dune exec bench/main.exe -- list    -- available experiments *)

module Runner = Dlfw.Runner
module MC = Pasta_tools.Memory_charact
module UX = Pasta_tools.Uvm_experiment

(* All experiment output goes through [ppf], which forwards to the current
   target — stdout by default, a per-experiment results file under
   [--out DIR]. *)
let out_ppf = ref Format.std_formatter

let ppf =
  Format.make_formatter
    (fun s pos len ->
      let out = Format.pp_get_formatter_out_functions !out_ppf () in
      out.Format.out_string s pos len)
    (fun () -> Format.pp_print_flush !out_ppf ())

let section title =
  Format.fprintf ppf "@.=== %s ===@.@." title

let mb bytes = float_of_int bytes /. 1048576.0

let all_workloads =
  List.concat_map
    (fun abbr -> [ (abbr, Runner.Inference); (abbr, Runner.Train) ])
    Runner.all_abbrs

(* Run a workload on a fresh device; returns (device, ctx, model) post-run. *)
let fresh_run ?(arch = Gpusim.Arch.a100) ?session_tool abbr mode =
  let device = Gpusim.Device.create arch in
  let ctx = Dlfw.Ctx.create device in
  let session = Option.map (fun tool -> Pasta.Session.attach ~tool device) session_tool in
  let model = Runner.run_default ctx abbr ~mode in
  let result = Option.map Pasta.Session.detach session in
  (device, ctx, model, result)

let baseline_time ?(arch = Gpusim.Arch.a100) abbr mode =
  let device, ctx, _, _ = fresh_run ~arch abbr mode in
  let t = Gpusim.Device.now_us device in
  Dlfw.Ctx.destroy ctx;
  t

(* ------------------------------------------------------------------ *)
(* Figure 4: cross-layer call stack of the hottest kernel.            *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: cross-layer call stack, most memory-referencing kernel (BERT inference)";
  let kf = Pasta_tools.Kernel_freq.create () in
  let _, ctx, _, _ =
    fresh_run ~session_tool:(Pasta_tools.Kernel_freq.tool kf) "BERT" Runner.Inference
  in
  (match Pasta_tools.Kernel_freq.most_mem_referenced kf with
  | None -> Format.fprintf ppf "no kernels observed@."
  | Some (k, accesses) ->
      Format.fprintf ppf "kernel: %s (%d memory references)@.@." k.Pasta.Event.name accesses;
      Pasta.Callstack.pp ppf (Pasta.Callstack.of_kernel k));
  Dlfw.Ctx.destroy ctx

(* ------------------------------------------------------------------ *)
(* Figure 7: kernel invocation frequency distribution.                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Figure 7: kernel invocation frequency across model inference and training";
  List.iter
    (fun (abbr, mode) ->
      let kf = Pasta_tools.Kernel_freq.create () in
      let _, ctx, _, _ =
        fresh_run ~session_tool:(Pasta_tools.Kernel_freq.tool kf) abbr mode
      in
      Format.fprintf ppf "%s %s: %d launches, %d distinct kernels@." abbr
        (Runner.mode_to_string mode)
        (Pasta_tools.Kernel_freq.total_launches kf)
        (Pasta_tools.Kernel_freq.distinct_kernels kf);
      List.iter
        (fun (name, count) -> Format.fprintf ppf "    %-62s %8d@." name count)
        (Pasta_tools.Kernel_freq.top kf 6);
      Dlfw.Ctx.destroy ctx)
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
  let _, ctx, _, _ = fresh_run ~session_tool:(MC.tool mc) abbr mode in
  let r = MC.result mc in
  Dlfw.Ctx.destroy ctx;
  r

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
              let _, ctx, _, result =
                fresh_run ~arch ~session_tool:(MC.tool mc) abbr mode
              in
              Dlfw.Ctx.destroy ctx;
              let result = Option.get result in
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
  let _, ctx, _, _ =
    fresh_run ~session_tool:(Pasta_tools.Hotness.tool hot) "BERT" Runner.Inference
  in
  Pasta_tools.Hotness.report hot ppf;
  Dlfw.Ctx.destroy ctx

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
    let _, ctx, _, result = fresh_run ~session_tool:tool "BERT" Runner.Inference in
    Dlfw.Ctx.destroy ctx;
    let result = Option.get result in
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

type pipeline_run = {
  p_records : int;
  p_wall_s : float;
  p_report : string;  (* rendered tool output, for byte-identity checks *)
}

(* One BERT-inference run under fine-grained hotness.  [`Serial] is the
   per-record path: a CS-CPU tool with only [on_access], so the processor
   unpacks every buffered view into one event allocation, one dispatch
   and one [on_access] call per sampled record.  [`Parallel n] is the
   batched path: packed chunks, an [n]-domain device-side reduction, one
   merged summary per kernel. *)
let pipeline_run ~sample_cap ~iters kind =
  Pasta.Config.set "ACCEL_PROF_DOMAINS"
    (match kind with `Serial -> "1" | `Parallel n -> string_of_int n);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let records = ref 0 in
  let tool, render =
    match kind with
    | `Serial ->
        (* Same unit of per-sample tool work as the hotness accumulator,
           so the comparison measures the delivery pipeline, not the tool. *)
        let samples = ref [] in
        let tool =
          {
            (Pasta.Tool.default ~fine_grained:Pasta.Tool.Cpu_sanitizer "hotness_serial") with
            Pasta.Tool.on_access =
              (fun _ a ->
                incr records;
                samples :=
                  (a.Pasta.Event.addr / Pasta_tools.Hotness.block_bytes, a.Pasta.Event.weight)
                  :: !samples);
          }
        in
        (tool, fun () -> Printf.sprintf "serial: %d block samples" (List.length !samples))
    | `Parallel _ ->
        let hot = Pasta_tools.Hotness.create () in
        let base = Pasta_tools.Hotness.tool_fine hot in
        let tool =
          {
            base with
            Pasta.Tool.on_device_summary =
              (fun info s ->
                records := !records + s.Pasta.Devagg.sampled_records;
                base.Pasta.Tool.on_device_summary info s);
          }
        in
        (tool, fun () -> Format.asprintf "%t" (fun ppf -> Pasta_tools.Hotness.report hot ppf))
  in
  let t0 = Unix.gettimeofday () in
  let session = Pasta.Session.attach ~sample_cap:sample_cap ~tool device in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters;
  let (_ : Pasta.Session.result) = Pasta.Session.detach session in
  let wall = Unix.gettimeofday () -. t0 in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  { p_records = !records; p_wall_s = wall; p_report = render () }

(* One configuration measured [reps] times: the median wall time is the
   headline (robust against a stray GC pause or scheduler hiccup in either
   direction), the min is reported alongside as the best case. *)
type pipeline_summary = {
  pm_records : int;
  pm_wall_median : float;
  pm_wall_min : float;
  pm_report : string;
}

let pipeline_summarize runs =
  let walls = List.map (fun r -> r.p_wall_s) runs |> List.sort compare in
  let median =
    let a = Array.of_list walls in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))
  in
  let first = List.hd runs in
  (* Record counts and reports are deterministic per configuration; check
     rather than assume, so a rep-to-rep divergence can't hide. *)
  List.iter
    (fun r ->
      if r.p_records <> first.p_records || r.p_report <> first.p_report then begin
        prerr_endline "pipeline: FAIL - output diverges across repetitions";
        exit 1
      end)
    runs;
  {
    pm_records = first.p_records;
    pm_wall_median = median;
    pm_wall_min = List.hd walls;
    pm_report = first.p_report;
  }

let pipeline () =
  section
    "Pipeline: per-record delivery vs batched parallel preprocessing (BERT inference, \
     fine-grained hotness)";
  let sample_cap = 4096 and iters = 1 and reps = 9 in
  let kinds = [| `Serial; `Parallel 1; `Parallel 2; `Parallel 4; `Parallel 8 |] in
  (* One unmeasured warmup pass per configuration (page cache, branch
     predictors, pool creation), then the timed reps run round-robin
     across configurations with a compacted heap, so slow machine drift
     lands evenly on every configuration instead of on whichever
     happened to run last.  Each round starts one configuration later
     than the previous one: within a round the heap and allocator state
     degrade slightly from first slot to last, and rotating the start
     spreads that position cost across configurations instead of always
     taxing the same one. *)
  Array.iter (fun k -> ignore (pipeline_run ~sample_cap ~iters k)) kinds;
  let n_kinds = Array.length kinds in
  let samples = Array.map (fun _ -> ref []) kinds in
  for rep = 0 to reps - 1 do
    for slot = 0 to n_kinds - 1 do
      let i = (slot + rep) mod n_kinds in
      Gc.compact ();
      samples.(i) := pipeline_run ~sample_cap ~iters kinds.(i) :: !(samples.(i))
    done
  done;
  let summarize i = pipeline_summarize (List.rev !(samples.(i))) in
  let serial = summarize 0 in
  let par = List.mapi (fun i d -> (d, summarize (i + 1))) [ 1; 2; 4; 8 ] in
  let rps r = float_of_int r.pm_records /. r.pm_wall_median in
  let speedup r = serial.pm_wall_median /. r.pm_wall_median in
  let row name r =
    [
      name;
      string_of_int r.pm_records;
      Printf.sprintf "%.1f" (1000.0 *. r.pm_wall_median);
      Printf.sprintf "%.1f" (1000.0 *. r.pm_wall_min);
      Printf.sprintf "%.2e" (rps r);
      Printf.sprintf "%.2fx" (speedup r);
    ]
  in
  Pasta_util.Texttab.render ppf
    ~header:
      [ "configuration"; "records"; "median (ms)"; "min (ms)"; "records/s"; "speedup" ]
    ~align:[ Pasta_util.Texttab.Left; Right; Right; Right; Right; Right ]
    (row "serial (per-record)" serial
    :: List.map
         (fun (d, r) ->
           row (Printf.sprintf "batched, %d domain%s" d (if d = 1 then "" else "s")) r)
         par);
  Format.fprintf ppf
    "@.%d reps per configuration; wall times are medians, speedups from medians.@." reps;
  (match List.assoc_opt 2 par with
  | Some r ->
      (* The old 2-domain anomaly (2.06x vs 2.83x at 1 domain) was
         oversubscription: every extra domain past the hardware's
         parallelism just timeshares a core through the job mutex.
         Domain_pool now claims guided blocks and clamps spawned workers
         to [Domain.recommended_domain_count], so extra requested domains
         can no longer make the pipeline slower. *)
      Format.fprintf ppf
        "2-domain scheduling (guided claiming, pool clamped to %d-core hardware): %.2fx \
         vs serial@."
        (Domain.recommended_domain_count ())
        (speedup r)
  | None -> ());
  let digests = List.map (fun (d, r) -> (d, Digest.to_hex (Digest.string r.pm_report))) par in
  let deterministic =
    match digests with
    | [] -> true
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> d = d0) rest
  in
  Format.fprintf ppf "tool output %s across domain counts (md5 %s)@."
    (if deterministic then "byte-identical" else "DIVERGES")
    (match digests with (_, d) :: _ -> d | [] -> "-");
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"pipeline\",\n";
  Printf.bprintf b "  \"workload\": \"BERT-inference\",\n";
  Printf.bprintf b "  \"sample_cap\": %d,\n  \"iters\": %d,\n  \"reps\": %d,\n" sample_cap
    iters reps;
  Printf.bprintf b "  \"hardware_parallelism\": %d,\n" (Domain.recommended_domain_count ());
  Printf.bprintf b
    "  \"serial\": { \"records\": %d, \"wall_median_s\": %.6f, \"wall_min_s\": %.6f, \
     \"records_per_sec\": %.1f },\n"
    serial.pm_records serial.pm_wall_median serial.pm_wall_min (rps serial);
  Printf.bprintf b "  \"parallel\": [\n";
  List.iteri
    (fun i (d, r) ->
      Printf.bprintf b
        "    { \"domains\": %d, \"records\": %d, \"wall_median_s\": %.6f, \
         \"wall_min_s\": %.6f, \"records_per_sec\": %.1f, \"speedup_vs_serial\": %.3f, \
         \"digest\": \"%s\" }%s\n"
        d r.pm_records r.pm_wall_median r.pm_wall_min (rps r) (speedup r)
        (Digest.to_hex (Digest.string r.pm_report))
        (if i = List.length par - 1 then "" else ","))
    par;
  Printf.bprintf b "  ],\n";
  let sp d = match List.assoc_opt d par with Some r -> speedup r | None -> 0.0 in
  (* Measurement noise floor: the worst relative gap between a batched
     configuration's median and best wall across the reps.  Once the pool
     clamps to hardware parallelism, configurations past the core count
     execute identical code, so speedup differences inside this band are
     sampling error, not scheduling regressions; the monotonicity gate
     below compares at this resolution.  On hardware with enough cores
     for every configuration the band still applies, but genuine scaling
     regressions dwarf it. *)
  let noise_floor =
    List.fold_left
      (fun acc (_, r) ->
        Float.max acc ((r.pm_wall_median -. r.pm_wall_min) /. r.pm_wall_median))
      0.0 par
  in
  let monotone_raw =
    let rec go = function
      | (_, a) :: ((_, b) :: _ as rest) ->
          speedup a <= speedup b && go rest
      | _ -> true
    in
    go par
  in
  Printf.bprintf b "  \"speedup_4_domains_vs_serial\": %.3f,\n" (sp 4);
  Printf.bprintf b "  \"speedup_8_domains_vs_serial\": %.3f,\n" (sp 8);
  Printf.bprintf b "  \"speedup_noise_floor\": %.4f,\n" noise_floor;
  Printf.bprintf b "  \"speedup_monotone_1_to_8\": %b,\n" monotone_raw;
  Printf.bprintf b "  \"deterministic_across_domains\": %b\n}\n" deterministic;
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_pipeline.json@.";
  if not deterministic then begin
    prerr_endline "pipeline: FAIL - parallel tool output diverges across domain counts";
    exit 1
  end;
  if sp 8 < sp 4 *. (1.0 -. noise_floor) then begin
    Printf.eprintf
      "pipeline: FAIL - 8-domain speedup (%.2fx) below 4-domain speedup (%.2fx) beyond \
       the %.1f%% measurement noise floor\n"
      (sp 8) (sp 4) (100.0 *. noise_floor);
    exit 1
  end
  else if sp 8 < sp 4 then
    Format.fprintf ppf
      "8-domain speedup (%.2fx) within the %.1f%% noise floor of 4-domain (%.2fx); \
       configurations past the %d-core clamp run identical code@."
      (sp 8) (100.0 *. noise_floor) (sp 4)
      (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)

(* Record/replay: a live simulate+analyze run with a trace capture riding
   along, vs re-driving the recorded op stream through the same tool
   offline.  Replay skips simulation and instrumentation entirely, so it
   should be substantially faster while reproducing the report byte for
   byte. *)

let replay_live ~sample_cap ~iters ~capture =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let hot = Pasta_tools.Hotness.create () in
  let t0 = Unix.gettimeofday () in
  let session =
    Pasta.Session.attach ~sample_cap:sample_cap ?capture
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      device
  in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters;
  let result = Pasta.Session.detach session in
  let wall = Unix.gettimeofday () -. t0 in
  Dlfw.Ctx.destroy ctx;
  (wall, result)

let replay_offline path =
  let hot = Pasta_tools.Hotness.create () in
  let t0 = Unix.gettimeofday () in
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      path
  in
  let wall = Unix.gettimeofday () -. t0 in
  (wall, o)

let replay () =
  section
    "Record/replay: live simulate+analyze vs offline trace replay (BERT \
     inference, fine-grained hotness)";
  let sample_cap = 4096 and iters = 1 and reps = 3 in
  let path = Filename.temp_file "pasta_bench" ".ptrace" in
  let best f =
    let runs = List.init reps (fun _ -> f ()) in
    List.fold_left
      (fun (w0, r0) (w, r) -> if w < w0 then (w, r) else (w0, r0))
      (List.hd runs) (List.tl runs)
  in
  let live_wall, live_result =
    best (fun () -> replay_live ~sample_cap ~iters ~capture:None)
  in
  (* the recording run overwrites [path] each rep; the last trace is the
     one replayed below, and every rep's trace is structurally identical *)
  let rec_wall, rec_result =
    best (fun () -> replay_live ~sample_cap ~iters ~capture:(Some path))
  in
  let replay_wall, outcome = best (fun () -> replay_offline path) in
  let live_report = Format.asprintf "%t" rec_result.Pasta.Session.report in
  let replay_report = Format.asprintf "%t" outcome.Pasta.Replay.report in
  let identical = String.equal live_report replay_report in
  let h = rec_result.Pasta.Session.health in
  let row name wall =
    [
      name;
      Printf.sprintf "%.1f" (1000.0 *. wall);
      Printf.sprintf "%.2fx" (live_wall /. wall);
    ]
  in
  Pasta_util.Texttab.render ppf
    ~header:[ "configuration"; "wall (ms)"; "speedup vs live" ]
    ~align:[ Pasta_util.Texttab.Left; Right; Right ]
    [
      row "live (simulate+analyze)" live_wall;
      row "live + capture" rec_wall;
      row "replay (trace -> tool)" replay_wall;
    ];
  Format.fprintf ppf
    "@.trace: %d ops, %d bytes, %d chunks; replay report %s live@."
    h.Pasta.Session.events_recorded h.Pasta.Session.bytes_written
    h.Pasta.Session.chunks
    (if identical then "byte-identical to" else "DIVERGES from");
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"replay\",\n";
  Printf.bprintf b "  \"workload\": \"BERT-inference\",\n";
  Printf.bprintf b "  \"sample_cap\": %d,\n  \"iters\": %d,\n" sample_cap iters;
  Printf.bprintf b "  \"live_wall_s\": %.6f,\n" live_wall;
  Printf.bprintf b "  \"record_wall_s\": %.6f,\n" rec_wall;
  Printf.bprintf b "  \"replay_wall_s\": %.6f,\n" replay_wall;
  Printf.bprintf b "  \"replay_speedup_vs_live\": %.3f,\n"
    (live_wall /. replay_wall);
  Printf.bprintf b "  \"capture_overhead_vs_live\": %.3f,\n"
    (rec_wall /. live_wall);
  Printf.bprintf b
    "  \"trace\": { \"ops\": %d, \"bytes\": %d, \"chunks\": %d },\n"
    h.Pasta.Session.events_recorded h.Pasta.Session.bytes_written
    h.Pasta.Session.chunks;
  Printf.bprintf b "  \"replay_ops\": %d,\n" outcome.Pasta.Replay.ops_replayed;
  Printf.bprintf b "  \"live_report_md5\": \"%s\",\n"
    (Digest.to_hex (Digest.string live_report));
  Printf.bprintf b "  \"replay_report_md5\": \"%s\",\n"
    (Digest.to_hex (Digest.string replay_report));
  Printf.bprintf b "  \"identical_reports\": %b\n}\n" identical;
  let oc = open_out "BENCH_replay.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_replay.json@.";
  Sys.remove path;
  ignore live_result

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
  Pasta.Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Pasta.Config.unset "ACCEL_PROF_TELEMETRY";
      Pasta.Telemetry.refresh_level ())
    f

let nvbit_records_run ~sample_cap =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let tool = MC.tool (MC.create ~variant:MC.Cpu_nvbit ()) in
  let t0 = Unix.gettimeofday () in
  let session = Pasta.Session.attach ~sample_cap ~tool device in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters:1;
  let r = Pasta.Session.detach session in
  let wall = Unix.gettimeofday () -. t0 in
  Dlfw.Ctx.destroy ctx;
  {
    p_records = r.Pasta.Session.events_seen;
    p_wall_s = wall;
    p_report = Format.asprintf "%t" r.Pasta.Session.report;
  }

(* Warm each level once, then time [reps] rounds rotating the level
   order under a compacted heap (as the pipeline experiment does), and
   keep the attribution of one more full-level run.  A level's overhead
   is the median over rounds of its wall time over the same round's
   [off] wall time: the runs of one round are adjacent in time, so the
   ratio cancels the machine's drift, and the median drops the round a
   neighbour's burst landed in. *)
let telemetry_levels ~reps run =
  let levels = [| "off"; "basic"; "full" |] in
  let n = Array.length levels in
  Array.iter (fun l -> ignore (with_telemetry l run)) levels;
  let rounds = Array.make_matrix reps n { p_records = 0; p_wall_s = 0.0; p_report = "" } in
  for rep = 0 to reps - 1 do
    for slot = 0 to n - 1 do
      let i = (slot + rep) mod n in
      Gc.compact ();
      rounds.(rep).(i) <- with_telemetry levels.(i) run
    done
  done;
  let attr, attr_text =
    with_telemetry "full" (fun () ->
        ignore (run ());
        let a = Pasta.Telemetry.attribution () in
        (a, Format.asprintf "%a" Pasta.Telemetry.pp_attribution a))
  in
  let summary i = pipeline_summarize (Array.to_list (Array.map (fun r -> r.(i)) rounds)) in
  let ratio i =
    Pasta_util.Stats.percentile
      (Array.map (fun r -> r.(i).p_wall_s /. r.(0).p_wall_s) rounds)
      50.0
  in
  (Array.init n (fun i -> (summary i, ratio i)), attr, attr_text)

let telemetry () =
  let reps = 15 in
  let workloads =
    [
      ( "BERT-inference-batched-4dom",
        "batched hotness, 4 domains",
        4096,
        (fun () -> pipeline_run ~sample_cap:4096 ~iters:1 (`Parallel 4)),
        ("basic_overhead < 0.05", fun ratio -> ratio -. 1.0 < 0.05) );
      ( "BERT-inference-nvbit-records",
        "per-record memory_charact_nvbit_cpu",
        2048,
        (fun () -> nvbit_records_run ~sample_cap:2048),
        ("basic_overhead <= 0.5", fun ratio -> ratio <= 1.5) );
    ]
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"telemetry\",\n";
  Printf.bprintf b "  \"reps\": %d,\n" reps;
  Printf.bprintf b "  \"hardware_parallelism\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.bprintf b "  \"workloads\": [\n";
  let failures =
    List.mapi
      (fun wi (name, describe, sample_cap, run, (gate, gate_ok)) ->
        section
          (Printf.sprintf
             "Self-telemetry overhead: off vs basic vs full (BERT inference, %s)"
             describe);
        let levels, attr, attr_text = telemetry_levels ~reps run in
        let (off, _), (basic, basic_ratio), (full, full_ratio) =
          (levels.(0), levels.(1), levels.(2))
        in
        let row level (r, ratio) =
          [
            level;
            Printf.sprintf "%.1f" (1000.0 *. r.pm_wall_min);
            Printf.sprintf "%.1f" (1000.0 *. r.pm_wall_median);
            Printf.sprintf "%.2fx" ratio;
          ]
        in
        Pasta_util.Texttab.render ppf
          ~header:[ "telemetry level"; "best (ms)"; "median (ms)"; "vs off" ]
          ~align:[ Pasta_util.Texttab.Left; Right; Right; Right ]
          [ row "off" levels.(0); row "basic" levels.(1); row "full" levels.(2) ];
        let identical =
          String.equal off.pm_report basic.pm_report
          && String.equal off.pm_report full.pm_report
        in
        let ok = gate_ok basic_ratio in
        Format.fprintf ppf
          "@.tool output %s across telemetry levels; gate %s: %s; attribution \
           (full run):@.%s@."
          (if identical then "byte-identical" else "DIVERGES")
          gate
          (if ok then "ok" else "FAIL")
          attr_text;
        Printf.bprintf b "    {\n";
        Printf.bprintf b "      \"workload\": \"%s\",\n" name;
        Printf.bprintf b "      \"sample_cap\": %d,\n      \"iters\": 1,\n" sample_cap;
        Printf.bprintf b "      \"records\": %d,\n" off.pm_records;
        List.iter
          (fun (level, r) ->
            Printf.bprintf b "      \"%s_wall_min_s\": %.6f,\n" level r.pm_wall_min;
            Printf.bprintf b "      \"%s_wall_median_s\": %.6f,\n" level
              r.pm_wall_median)
          [ ("off", off); ("basic", basic); ("full", full) ];
        Printf.bprintf b "      \"basic_overhead\": %.4f,\n" (basic_ratio -. 1.0);
        Printf.bprintf b "      \"full_overhead\": %.4f,\n" (full_ratio -. 1.0);
        Printf.bprintf b "      \"attribution_rows\": [\n";
        let rows = attr.Pasta.Telemetry.at_rows in
        List.iteri
          (fun i r ->
            Printf.bprintf b
              "        { \"label\": \"%s\", \"self_us\": %.1f, \"count\": %d }%s\n"
              r.Pasta.Telemetry.row_label r.Pasta.Telemetry.row_self_us
              r.Pasta.Telemetry.row_count
              (if i = List.length rows - 1 then "" else ","))
          rows;
        Printf.bprintf b "      ],\n";
        Printf.bprintf b "      \"attribution_total_us\": %.1f,\n"
          attr.Pasta.Telemetry.at_total_us;
        Printf.bprintf b "      \"digest\": \"%s\",\n"
          (Digest.to_hex (Digest.string off.pm_report));
        Printf.bprintf b "      \"identical_reports\": %b,\n" identical;
        Printf.bprintf b "      \"gate\": \"%s\",\n      \"gate_ok\": %b\n" gate ok;
        Printf.bprintf b "    }%s\n" (if wi = List.length workloads - 1 then "" else ",");
        if ok then []
        else [ Printf.sprintf "%s: %s (basic %.2fx off)" name gate basic_ratio ])
      workloads
    |> List.concat
  in
  Printf.bprintf b "  ]\n}\n";
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_telemetry.json@.";
  if failures <> [] then begin
    List.iter (fun f -> Format.fprintf ppf "telemetry: FAIL - %s@." f) failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* Sampling: overhead vs estimate-error tradeoff at fixed rates and
   under the adaptive governor.  Fine-grained hotness over BERT
   inference; per-block heat comes straight from the weighted Devagg
   summaries, so sampled runs report inverse-probability estimates.
   Overhead is the telemetry attribution fraction — the same signal the
   governor steers on — which keeps the budget gate meaningful even
   though the simulated workload is wall-clock cheap. *)

type sampling_run = {
  s_wall_s : float;
  s_frac : float;  (* framework self-time fraction over the run's window *)
  s_records : int;  (* records that actually crossed the pipeline *)
  s_heat : (int, float) Hashtbl.t;  (* absolute 2 MiB block -> weighted heat *)
  s_rate : float;  (* rate in force when the session detached *)
  s_snapshot : Pasta.Sampler.snapshot option;
}

let sampling_run ~sample_cap ~iters spec =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let hot = Pasta_tools.Hotness.create () in
  let heat = Hashtbl.create 512 in
  let records = ref 0 in
  let base = Pasta_tools.Hotness.tool_fine hot in
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
  let total0, over0 = Pasta.Telemetry.overhead_snapshot () in
  let t0 = Unix.gettimeofday () in
  let session =
    match spec with
    | `Exact -> Pasta.Session.attach ~sample_cap ~tool device
    | `Fixed r -> Pasta.Session.attach ~sample_cap ~sample_rate:r ~tool device
    | `Auto budget -> Pasta.Session.attach ~sample_cap ~overhead_budget:budget ~tool device
  in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters;
  let result = Pasta.Session.detach session in
  let wall = Unix.gettimeofday () -. t0 in
  let total1, over1 = Pasta.Telemetry.overhead_snapshot () in
  Dlfw.Ctx.destroy ctx;
  let dt = total1 -. total0 in
  let snap = result.Pasta.Session.health.Pasta.Session.sampling in
  {
    s_wall_s = wall;
    s_frac = (if dt > 0.0 then (over1 -. over0) /. dt else 0.0);
    s_records = !records;
    s_heat = heat;
    s_rate = (match snap with Some sn -> sn.Pasta.Sampler.sn_rate | None -> 1.0);
    s_snapshot = snap;
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
  let sample_cap = 4096 and iters = 1 and reps = 3 in
  let budget = 0.35 in
  let measure spec =
    let runs = List.init reps (fun _ -> sampling_run ~sample_cap ~iters spec) in
    let by_frac = List.sort (fun a b -> compare a.s_frac b.s_frac) runs in
    let median_frac = (List.nth by_frac (reps / 2)).s_frac in
    let best =
      List.fold_left
        (fun acc r -> if r.s_wall_s < acc.s_wall_s then r else acc)
        (List.hd runs) (List.tl runs)
    in
    (best, median_frac)
  in
  let configs =
    [
      ("exact (rate 1.0)", `Exact);
      ("fixed 0.5", `Fixed 0.5);
      ("fixed 0.1", `Fixed 0.1);
      (Printf.sprintf "auto (budget %.0f%%)" (100.0 *. budget), `Auto budget);
    ]
  in
  let results = List.map (fun (name, spec) -> (name, measure spec)) configs in
  let exact, _ = snd (List.hd results) in
  let exact_top = top_blocks exact.s_heat in
  let overlap heat =
    List.length (List.filter (fun b -> List.mem b (top_blocks heat)) exact_top)
  in
  Pasta_util.Texttab.render ppf
    ~header:
      [ "configuration"; "rate"; "records"; "wall (ms)"; "self-time"; "est err"; "top-10" ]
    ~align:
      [ Pasta_util.Texttab.Left; Right; Right; Right; Right; Right; Right ]
    (List.map
       (fun (name, (r, frac)) ->
         [
           name;
           Printf.sprintf "%.2f" r.s_rate;
           string_of_int r.s_records;
           Printf.sprintf "%.1f" (1000.0 *. r.s_wall_s);
           Printf.sprintf "%.1f%%" (100.0 *. frac);
           Printf.sprintf "%.3f" (est_error ~exact:exact.s_heat r.s_heat);
           Printf.sprintf "%d/10" (overlap r.s_heat);
         ])
       results);
  let auto, auto_frac =
    snd (List.find (fun (name, _) -> String.length name >= 4 && String.sub name 0 4 = "auto") results)
  in
  (match auto.s_snapshot with
  | Some sn -> Format.fprintf ppf "governor: %a@." Pasta.Sampler.pp_snapshot sn
  | None -> ());
  let auto_within = auto_frac <= budget +. 0.01 in
  let top_match = top10_matches ~exact:exact.s_heat auto.s_heat in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"sampling\",\n";
  Printf.bprintf b "  \"workload\": \"BERT-inference-fine-hotness\",\n";
  Printf.bprintf b "  \"sample_cap\": %d,\n  \"iters\": %d,\n  \"reps\": %d,\n"
    sample_cap iters reps;
  Printf.bprintf b "  \"budget\": %.2f,\n" budget;
  Printf.bprintf b "  \"runs\": [\n";
  List.iteri
    (fun i (name, (r, frac)) ->
      Printf.bprintf b
        "    { \"config\": \"%s\", \"rate\": %.3f, \"records\": %d, \"wall_s\": \
         %.6f, \"overhead_frac\": %.4f, \"est_error\": %.4f, \"top10_overlap\": \
         %d, \"top10_match\": %b }%s\n"
        name r.s_rate r.s_records r.s_wall_s frac
        (est_error ~exact:exact.s_heat r.s_heat)
        (overlap r.s_heat)
        (top10_matches ~exact:exact.s_heat r.s_heat)
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b "  \"auto_overhead_frac\": %.4f,\n" auto_frac;
  Printf.bprintf b "  \"auto_within_budget\": %b,\n" auto_within;
  Printf.bprintf b "  \"auto_top10_matches_exact\": %b\n}\n" top_match;
  let oc = open_out "BENCH_sampling.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_sampling.json@.";
  if not auto_within then begin
    Format.fprintf ppf
      "sampling: FAIL - governed overhead %.1f%% exceeds the %.0f%% budget (+1pp)@."
      (100.0 *. auto_frac) (100.0 *. budget);
    exit 1
  end;
  if not top_match then begin
    Format.fprintf ppf
      "sampling: FAIL - governed top-10 hot blocks diverge from the exact run@.";
    exit 1
  end

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
  let fanout = 8 and seed = 0x5eedL and reps = 5 in
  let pool = Pasta_util.Domain_pool.global ~size:(Pasta.Config.domains ()) in
  let best f =
    let wall () =
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Unix.gettimeofday () -. t0
    in
    List.init reps (fun _ -> wall ()) |> List.fold_left Float.min infinity
  in
  let sizes = [ 64; 128; 256; 512 ] in
  let measure n =
    let leaves = Array.init n (fun d -> Some (scale_summary (1 + (d mod 7)) base)) in
    let summaries = Array.to_list leaves |> List.filter_map Fun.id in
    let tree_us = 1.0e6 *. best (fun () -> Pasta.Fleet.reduce ~pool ~seed ~fanout leaves) in
    let tree_fault_us =
      1.0e6
      *. best (fun () ->
             Pasta.Fleet.reduce ~pool ~rates:Gpusim.Faults.default_fleet_rates
               ~seed ~fanout leaves)
    in
    let flat_us = 1.0e6 *. best (fun () -> Pasta.Fleet.flat_merge summaries) in
    let faulted =
      Pasta.Fleet.reduce ~pool ~rates:Gpusim.Faults.default_fleet_rates ~seed
        ~fanout leaves
    in
    let dropped =
      List.fold_left
        (fun acc (_, ds) -> acc + List.length ds)
        0 faulted.Pasta.Fleet.red_dropped
    in
    (n, tree_us, tree_fault_us, flat_us, dropped)
  in
  let rows = List.map measure sizes in
  Pasta_util.Texttab.render ppf
    ~header:
      [ "devices"; "tree (us)"; "tree+faults (us)"; "flat (us)"; "dropped" ]
    ~align:[ Pasta_util.Texttab.Right; Right; Right; Right; Right ]
    (List.map
       (fun (n, t, tf, fl, d) ->
         [
           string_of_int n;
           Printf.sprintf "%.1f" t;
           Printf.sprintf "%.1f" tf;
           Printf.sprintf "%.1f" fl;
           string_of_int d;
         ])
       rows);
  let at n = List.find (fun (m, _, _, _, _) -> m = n) rows in
  let _, t64, _, f64, _ = at 64 and _, t512, _, f512, _ = at 512 in
  let growth_tree = t512 /. t64 and growth_flat = f512 /. f64 in
  (* 64 -> 512 is an 8x device growth: the tree is sublinear when its
     wall time grows by less than that factor. *)
  let sublinear = growth_tree < 8.0 in
  Format.fprintf ppf
    "@.64 -> 512 devices: tree wall grows %.2fx, flat grows %.2fx (%s)@."
    growth_tree growth_flat
    (if sublinear then "tree sublinear" else "tree NOT sublinear");
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"fleet\",\n";
  Printf.bprintf b "  \"fanout\": %d,\n  \"reps\": %d,\n  \"pool_domains\": %d,\n"
    fanout reps
    (Pasta_util.Domain_pool.size pool);
  Printf.bprintf b "  \"rows\": [\n";
  List.iteri
    (fun i (n, t, tf, fl, d) ->
      Printf.bprintf b
        "    { \"devices\": %d, \"tree_us\": %.1f, \"tree_faults_us\": %.1f, \
         \"flat_us\": %.1f, \"dropped_with_faults\": %d }%s\n"
        n t tf fl d
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b "  \"growth_tree_64_to_512\": %.3f,\n" growth_tree;
  Printf.bprintf b "  \"growth_flat_64_to_512\": %.3f,\n" growth_flat;
  Printf.bprintf b "  \"tree_sublinear\": %b\n}\n" sublinear;
  let oc = open_out "BENCH_fleet.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_fleet.json@.";
  if not sublinear then begin
    Format.fprintf ppf
      "fleet: FAIL - tree aggregation wall time grew %.2fx over an 8x device \
       growth@."
      growth_tree;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* Serve: the multi-tenant daemon under a saturating mixed load.  Four
   clean tenants (mixed models, tools and knob overlays) plus one chaos
   tenant whose tool throws on every kernel end, with enough jobs
   in flight to keep every executor thread busy end to end.  Reported:
   sustained jobs/sec and the client-observed submit-to-done latency
   distribution (p50/p90/p99).  Gated: every clean tenant's served
   results are byte-identical to its solo run, and the chaos tenant's
   quarantines leave the clean tenants untouched. *)

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
      let tool =
        match Pasta.Registry.find (Option.get s.Srv.Proto.tool) with
        | Some mk -> mk ()
        | None -> failwith ("tool unregistered: " ^ Option.get s.Srv.Proto.tool)
      in
      let device = Gpusim.Device.create Gpusim.Arch.a100 in
      let ctx = Dlfw.Ctx.create device in
      Gpusim.Hostctx.clear ();
      Fun.protect
        ~finally:(fun () -> Dlfw.Ctx.destroy ctx)
        (fun () ->
          let (), res =
            Pasta.Session.run ~tool device (fun () ->
                let m = Dlfw.Runner.build ctx s.Srv.Proto.model in
                Dlfw.Runner.run ctx m ~mode:Dlfw.Runner.Inference
                  ~iters:(Option.get s.Srv.Proto.iters))
          in
          ( Format.asprintf "%t" res.Pasta.Session.report,
            Pasta_util.Metric.counter_samples res.Pasta.Session.metrics )))

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
    List.map
      (fun s ->
        let submitted = Unix.gettimeofday () in
        match Srv.submit t s with
        | Error e ->
            Format.fprintf ppf "serve: FAIL - submit rejected (%s)@." e;
            exit 1
        | Ok id ->
            Thread.create
              (fun () ->
                let outcome = Srv.wait ~timeout_s:300.0 t id in
                let lat = (Unix.gettimeofday () -. submitted) *. 1e6 in
                Mutex.lock mu;
                latencies := lat :: !latencies;
                results := (s, outcome) :: !results;
                Mutex.unlock mu)
              ())
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
  let fault_containment = chaos_quarantined && identical_to_solo in
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
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"serve\",\n";
  Printf.bprintf b "  \"workers\": %d,\n  \"tenants\": %d,\n" workers
    (1 + List.length clean_tenants);
  Printf.bprintf b "  \"jobs\": %d,\n  \"jobs_per_tenant\": %d,\n" n
    jobs_per_tenant;
  Printf.bprintf b "  \"wall_s\": %.3f,\n" wall;
  Printf.bprintf b "  \"jobs_per_sec\": %.1f,\n" jobs_per_sec;
  Printf.bprintf b "  \"p50_latency_us\": %.0f,\n" lat.Pasta_util.Stats.median;
  Printf.bprintf b "  \"p90_latency_us\": %.0f,\n" lat.Pasta_util.Stats.p90;
  Printf.bprintf b "  \"p99_latency_us\": %.0f,\n" lat.Pasta_util.Stats.p99;
  Printf.bprintf b "  \"max_latency_us\": %.0f,\n" lat.Pasta_util.Stats.max;
  Printf.bprintf b "  \"tenants_detail\": [\n";
  List.iter
    (fun (tenant, jobs, ok) ->
      Printf.bprintf b
        "    { \"tenant\": \"%s\", \"jobs\": %d, \"identical\": %b },\n" tenant
        jobs ok)
    clean_rows;
  Printf.bprintf b
    "    { \"tenant\": \"chaos\", \"jobs\": %d, \"quarantined\": %b }\n"
    (List.length chaos_jobs) chaos_quarantined;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b "  \"identical_to_solo\": %b,\n" identical_to_solo;
  Printf.bprintf b "  \"fault_containment\": %b\n}\n" fault_containment;
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_serve.json@.";
  if not identical_to_solo then begin
    Format.fprintf ppf
      "serve: FAIL - a tenant's served results diverge from its solo run@.";
    exit 1
  end;
  if not chaos_quarantined then begin
    Format.fprintf ppf
      "serve: FAIL - the chaos tenant's tool was not quarantined@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* Region instrumentation: overhead at off/coarse/fine plus the
   zero-perturbation guarantee.  Region probes never advance the device
   clock and ride the existing event bus, so a tool that ignores region
   events must produce byte-identical output whether instrumentation is
   off or fine — the only cost is the wall-clock of emitting and
   dispatching the probes, which is the overhead under test. *)

let regions_run ~sample_cap ~iters granularity =
  (match granularity with
  | None -> ()
  | Some g -> Pasta.Config.set "ACCEL_PROF_REGIONS" g);
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let hot = Pasta_tools.Hotness.create () in
  let t0 = Unix.gettimeofday () in
  let session =
    Pasta.Session.attach ~sample_cap ~tool:(Pasta_tools.Hotness.tool_fine hot) device
  in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters;
  let (_ : Pasta.Session.result) = Pasta.Session.detach session in
  let wall = Unix.gettimeofday () -. t0 in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_REGIONS";
  (wall, Format.asprintf "%t" (fun ppf -> Pasta_tools.Hotness.report hot ppf))

let regions_bench ?(reps = 7) ?(sample_cap = 4096) () =
  section
    "Regions: instrumentation overhead at off/coarse/fine and output identity \
     for region-blind tools (BERT inference, fine hotness)";
  let iters = 1 in
  let configs = [| None; Some "coarse"; Some "fine" |] in
  let config_name = function None -> "off" | Some g -> g in
  (* Same warmup + rotated round-robin discipline as the pipeline bench:
     machine drift lands evenly on every configuration. *)
  Array.iter (fun g -> ignore (regions_run ~sample_cap ~iters g)) configs;
  let n_configs = Array.length configs in
  let samples = Array.map (fun _ -> ref []) configs in
  for rep = 0 to reps - 1 do
    for slot = 0 to n_configs - 1 do
      let i = (slot + rep) mod n_configs in
      Gc.compact ();
      samples.(i) := regions_run ~sample_cap ~iters configs.(i) :: !(samples.(i))
    done
  done;
  let summarize i =
    let runs = List.rev !(samples.(i)) in
    let walls = List.map fst runs |> List.sort compare in
    let a = Array.of_list walls in
    let n = Array.length a in
    let median =
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))
    in
    let report = snd (List.hd runs) in
    List.iter
      (fun (_, r) ->
        if r <> report then begin
          prerr_endline "regions: FAIL - tool output diverges across repetitions";
          exit 1
        end)
      runs;
    (median, List.hd walls, report)
  in
  let off_med, off_min, off_report = summarize 0 in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i g ->
           let med, min_w, report = summarize i in
           (config_name g, med, min_w, report))
         configs)
  in
  let overhead med = (med -. off_med) /. off_med in
  Pasta_util.Texttab.render ppf
    ~header:[ "regions"; "median (ms)"; "min (ms)"; "overhead vs off" ]
    ~align:[ Pasta_util.Texttab.Left; Right; Right; Right ]
    (List.map
       (fun (name, med, min_w, _) ->
         [
           name;
           Printf.sprintf "%.1f" (1000.0 *. med);
           Printf.sprintf "%.1f" (1000.0 *. min_w);
           Printf.sprintf "%+.1f%%" (100.0 *. overhead med);
         ])
       rows);
  let report_of name =
    let _, _, _, r = List.find (fun (n, _, _, _) -> n = name) rows in
    r
  in
  let identical =
    String.equal off_report (report_of "coarse")
    && String.equal off_report (report_of "fine")
  in
  (* Measurement noise floor, as in the pipeline bench: the worst relative
     gap between a configuration's median and best wall. *)
  let noise_floor =
    List.fold_left
      (fun acc (_, med, min_w, _) -> Float.max acc ((med -. min_w) /. med))
      0.0 rows
  in
  let budget = 0.25 in
  let frac name =
    let _, med, _, _ = List.find (fun (n, _, _, _) -> n = name) rows in
    overhead med
  in
  Format.fprintf ppf
    "@.region-blind tool output %s across off/coarse/fine; overhead budget \
     %.0f%%, noise floor %.1f%%@."
    (if identical then "byte-identical" else "DIVERGES")
    (100.0 *. budget) (100.0 *. noise_floor);
  (* One instrumented pass under the region consumers, so the artifact
     records that the probes actually land: every kernel's region rows
     must sum to its wall time bit-for-bit. *)
  Pasta.Config.set "ACCEL_PROF_REGIONS" "fine";
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let lat = Pasta_tools.Region_latency.create () in
  let session =
    Pasta.Session.attach ~sample_cap ~tool:(Pasta_tools.Region_latency.tool lat) device
  in
  let model = Runner.build ctx "BERT" in
  Runner.run ctx model ~mode:Runner.Inference ~iters;
  let (_ : Pasta.Session.result) = Pasta.Session.detach session in
  Dlfw.Ctx.destroy ctx;
  Pasta.Config.unset "ACCEL_PROF_REGIONS";
  let totals = Pasta_tools.Region_latency.totals lat in
  let exact_kernels =
    List.length (List.filter (fun (_, wall, sum) -> sum = wall) totals)
  in
  Format.fprintf ppf
    "fine instrumentation: %d/%d kernels with bit-exact region partitions@."
    exact_kernels (List.length totals);
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"regions\",\n";
  Printf.bprintf b "  \"workload\": \"BERT-inference-fine-hotness\",\n";
  Printf.bprintf b "  \"sample_cap\": %d,\n  \"iters\": %d,\n  \"reps\": %d,\n"
    sample_cap iters reps;
  Printf.bprintf b "  \"rows\": [\n";
  List.iteri
    (fun i (name, med, min_w, _) ->
      Printf.bprintf b
        "    { \"regions\": \"%s\", \"wall_median_s\": %.6f, \"wall_min_s\": \
         %.6f, \"overhead_frac\": %.4f }%s\n"
        name med min_w (overhead med)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b "  \"overhead_frac_coarse\": %.4f,\n" (frac "coarse");
  Printf.bprintf b "  \"overhead_frac_fine\": %.4f,\n" (frac "fine");
  Printf.bprintf b "  \"overhead_budget\": %.2f,\n" budget;
  Printf.bprintf b "  \"noise_floor\": %.4f,\n" noise_floor;
  Printf.bprintf b "  \"kernels\": %d,\n" (List.length totals);
  Printf.bprintf b "  \"kernels_exact_partition\": %d,\n" exact_kernels;
  Printf.bprintf b "  \"identical_with_regions_off\": %b\n}\n" identical;
  let oc = open_out "BENCH_regions.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_regions.json@.";
  ignore off_min;
  if not identical then begin
    prerr_endline
      "regions: FAIL - region-blind tool output changes when instrumentation \
       is enabled";
    exit 1
  end;
  if exact_kernels <> List.length totals then begin
    Printf.eprintf
      "regions: FAIL - only %d/%d kernels have bit-exact region partitions\n"
      exact_kernels (List.length totals);
    exit 1
  end;
  if frac "fine" > budget +. noise_floor then begin
    Printf.eprintf
      "regions: FAIL - fine-grained overhead %.1f%% exceeds the %.0f%% budget \
       beyond the %.1f%% noise floor\n"
      (100.0 *. frac "fine")
      (100.0 *. budget) (100.0 *. noise_floor);
    exit 1
  end

let regions () = regions_bench ()

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
   solo session. *)
let hetero_run ?capture arches =
  let specs = List.mapi (fun i (k, a) -> (k, Gpusim.Device.create ~id:i a)) arches in
  let t0 = Unix.gettimeofday () in
  let (), mr =
    Pasta.Session.run_multi ?capture
      ~tool:(fun _ _ -> hetero_tool ())
      specs
      (fun () -> List.iter (fun (_, d) -> hetero_workload d) specs)
  in
  (Unix.gettimeofday () -. t0, mr)

let hetero_bench () =
  section
    "Heterogeneous sessions: one mixed-backend session (sanitizer + opencl + \
     xprof) vs the sum of solo sessions (BERT inference, kernel_freq)";
  let reps = 3 in
  let path = Filename.temp_file "pasta_hetero" ".ptrace" in
  let best f =
    let runs = List.init reps (fun _ -> f ()) in
    List.fold_left
      (fun (w0, r0) (w, r) -> if w < w0 then (w, r) else (w0, r0))
      (List.hd runs) (List.tl runs)
  in
  let solos =
    List.map
      (fun (kind, arch) ->
        let wall, mr = best (fun () -> hetero_run [ (kind, arch) ]) in
        (Pasta.Backend.kind_to_string kind, wall, snd (List.hd mr.Pasta.Session.mr_backends)))
      hetero_arches
  in
  let solo_sum = List.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 solos in
  let mixed_wall, _ = best (fun () -> hetero_run hetero_arches) in
  (* the gating run also records the shared mixed-backend trace *)
  let _, mr = hetero_run ~capture:path hetero_arches in
  let mixed_reports =
    List.map
      (fun (label, r) -> (label, Format.asprintf "%t" r.Pasta.Session.report))
      mr.Pasta.Session.mr_backends
  in
  let identical_per_backend =
    List.for_all2
      (fun (_, _, solo_r) (_, mixed_rep) ->
        String.equal
          (Format.asprintf "%t" solo_r.Pasta.Session.report)
          mixed_rep)
      solos mixed_reports
  in
  let o =
    Pasta.Replay.run_multi ~mode:Pasta.Ptrace.Strict
      ~tool:(fun _ -> hetero_tool ())
      path
  in
  let replay_identical =
    List.length o.Pasta.Replay.backends = List.length mixed_reports
    && List.for_all2
         (fun (_, mixed_rep) (_, _, report) ->
           String.equal mixed_rep (Format.asprintf "%t" report))
         mixed_reports o.Pasta.Replay.backends
  in
  let row name wall =
    [ name; Printf.sprintf "%.1f" (1000.0 *. wall) ]
  in
  Pasta_util.Texttab.render ppf
    ~header:[ "configuration"; "wall (ms)" ]
    ~align:[ Pasta_util.Texttab.Left; Right ]
    (List.map (fun (label, wall, _) -> row (label ^ " solo") wall) solos
    @ [ row "solo sum" solo_sum; row "mixed session" mixed_wall ]);
  let trace_ops =
    List.fold_left
      (fun acc (_, r) -> acc + r.Pasta.Session.health.Pasta.Session.events_recorded)
      0 mr.Pasta.Session.mr_backends
  in
  let h0 = (snd (List.hd mr.Pasta.Session.mr_backends)).Pasta.Session.health in
  Format.fprintf ppf
    "@.mixed trace: %d ops, %d bytes, %d chunks across %d backends@.\
     per-backend reports %s solo; replay %s live@."
    trace_ops h0.Pasta.Session.bytes_written h0.Pasta.Session.chunks
    (List.length mixed_reports)
    (if identical_per_backend then "byte-identical to" else "DIVERGE from")
    (if replay_identical then "byte-identical to" else "DIVERGES from");
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"experiment\": \"hetero\",\n";
  Printf.bprintf b "  \"workload\": \"BERT-inference\",\n";
  Printf.bprintf b "  \"reps\": %d,\n" reps;
  Printf.bprintf b "  \"backends\": [%s],\n"
    (String.concat ", "
       (List.map (fun (l, _, _) -> Printf.sprintf "\"%s\"" l) solos));
  List.iter
    (fun (label, wall, _) ->
      Printf.bprintf b "  \"solo_wall_s_%s\": %.6f,\n" label wall)
    solos;
  Printf.bprintf b "  \"solo_sum_wall_s\": %.6f,\n" solo_sum;
  Printf.bprintf b "  \"mixed_wall_s\": %.6f,\n" mixed_wall;
  Printf.bprintf b "  \"mixed_vs_solo_sum\": %.3f,\n" (mixed_wall /. solo_sum);
  Printf.bprintf b
    "  \"trace\": { \"ops\": %d, \"bytes\": %d, \"chunks\": %d },\n" trace_ops
    h0.Pasta.Session.bytes_written h0.Pasta.Session.chunks;
  Printf.bprintf b "  \"replay_ops\": %d,\n" o.Pasta.Replay.ops_replayed;
  Printf.bprintf b "  \"identical_per_backend\": %b,\n" identical_per_backend;
  Printf.bprintf b "  \"replay_identical\": %b\n}\n" replay_identical;
  let oc = open_out "BENCH_hetero.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.fprintf ppf "wrote BENCH_hetero.json@.";
  Sys.remove path;
  if not identical_per_backend then begin
    prerr_endline
      "hetero: FAIL - a backend's report changes when it shares a session \
       with other backends";
    exit 1
  end;
  if not replay_identical then begin
    prerr_endline
      "hetero: FAIL - mixed-backend trace replay diverges from the live \
       per-backend reports";
    exit 1
  end

(* Tiny divergence gate for `dune build @perf-smoke` (part of runtest):
   the batched path must see exactly the records the per-record path
   sees, and its output must not depend on the domain count. *)
let pipeline_smoke () =
  let sample_cap = 64 and iters = 1 in
  let serial = pipeline_run ~sample_cap ~iters `Serial in
  let par =
    List.map (fun d -> (d, pipeline_run ~sample_cap ~iters (`Parallel d))) [ 1; 2; 4; 8 ]
  in
  let digests = List.map (fun (_, r) -> Digest.to_hex (Digest.string r.p_report)) par in
  let same_digest =
    match digests with [] -> true | d :: rest -> List.for_all (( = ) d) rest
  in
  if not same_digest then begin
    prerr_endline "perf-smoke: FAIL - parallel tool output diverges across domain counts";
    exit 1
  end;
  if List.exists (fun (_, r) -> r.p_records <> serial.p_records) par then begin
    Printf.eprintf "perf-smoke: FAIL - record counts diverge (serial %d vs parallel %s)\n"
      serial.p_records
      (String.concat "/" (List.map (fun (_, r) -> string_of_int r.p_records) par));
    exit 1
  end;
  Printf.printf "perf-smoke: OK - %d records, identical output at 1/2/4/8 domains (md5 %s)\n"
    serial.p_records
    (match digests with d :: _ -> d | [] -> "-")

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
  match args with
  | [] -> List.iter (run_experiment ~out) experiments
  | [ "pipeline-smoke" ] -> pipeline_smoke ()
  | [ "regions-smoke" ] -> regions_bench ~reps:7 ~sample_cap:512 ()
  | [ "list" ] ->
      List.iter (fun (name, _) -> Format.fprintf ppf "%s@." name) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment ~out (name, f)
          | None ->
              Format.fprintf ppf "unknown experiment %s (try 'list')@." name;
              exit 1)
        names
