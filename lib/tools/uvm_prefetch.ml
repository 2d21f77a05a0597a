type granularity = Object_level | Tensor_level

module Imap = Map.Make (Int)

type kernel_targets = {
  tensors : (int * int) list;  (** (base, bytes) of accessed tensors *)
  objects : (int * int) list;  (** (base, bytes) of their runtime allocations *)
}

type recorder = {
  own_objmap : Pasta.Objmap.t;
  mutable per_kernel : kernel_targets Imap.t; (* keyed by grid_id *)
}

let recorder () = { own_objmap = Pasta.Objmap.create (); per_kernel = Imap.empty }

let dedup ranges =
  List.sort_uniq compare ranges

(* The runtime allocation covering an address: for a tensor inside a pool
   segment this is the segment — the only granularity a framework-blind
   prefetcher can see. *)
let covering_alloc rec_ addr =
  List.find_opt (fun (base, bytes) -> addr >= base && addr < base + bytes)
    (Pasta.Objmap.live_allocs rec_.own_objmap)

let record_summary rec_ (info : Pasta.Event.kernel_info) summary =
  let tensors, objects =
    List.fold_left
      (fun (ts, os) (obj, count) ->
        if count <= 0 then (ts, os)
        else
          match obj with
          | Pasta.Objmap.Tensor { ptr; bytes; _ } ->
              let os =
                match covering_alloc rec_ ptr with
                | Some range -> range :: os
                | None -> os
              in
              ((ptr, bytes) :: ts, os)
          | Pasta.Objmap.Device_alloc { ptr; bytes; _ } ->
              ((ptr, bytes) :: ts, (ptr, bytes) :: os)
          | Pasta.Objmap.Unknown _ -> (ts, os))
      ([], []) summary
  in
  rec_.per_kernel <-
    Imap.add info.Pasta.Event.grid_id
      { tensors = dedup tensors; objects = dedup objects }
      rec_.per_kernel

let recorder_tool rec_ =
  {
    (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_accelerated "uvm_prefetch_recorder") with
    Pasta.Tool.on_event =
      (fun ev -> Pasta.Event.update_objmap rec_.own_objmap ev.Pasta.Event.payload);
    on_mem_summary = record_summary rec_;
    report =
      (fun ppf ->
        Format.fprintf ppf "uvm_prefetch_recorder: plans for %d kernels@."
          (Imap.cardinal rec_.per_kernel));
  }

type plan = { ranges : (int * int) list Imap.t }

let plan_of rec_ granularity =
  let pick (kt : kernel_targets) =
    match granularity with Object_level -> kt.objects | Tensor_level -> kt.tensors
  in
  { ranges = Imap.map pick rec_.per_kernel }

let plan_kernels plan = Imap.cardinal plan.ranges

let plan_ranges plan =
  Imap.fold (fun _ rs acc -> acc + List.length rs) plan.ranges 0

let probe_name = "uvm-prefetcher"

let install plan device =
  let uvm = Gpusim.Device.uvm device in
  Gpusim.Device.add_probe device
    {
      Gpusim.Device.probe_name;
      on_event =
        (fun ev ->
          match ev with
          | Gpusim.Device.Launch_begin info -> (
              match Imap.find_opt info.Gpusim.Device.grid_id plan.ranges with
              | Some ranges ->
                  List.iter
                    (fun (base, bytes) -> Gpusim.Uvm.prefetch uvm ~base ~bytes)
                    ranges
              | None -> ())
          | _ -> ());
    }

let remove device = Gpusim.Device.remove_probe device probe_name
