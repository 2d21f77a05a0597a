type t = {
  knob_name : string;
  mutable best : (Event.kernel_info * int) option;
}

let max_mem_referenced_kernel = "MAX_MEM_REFERENCED_KERNEL"
let max_called_kernel = "MAX_CALLED_KERNEL"

let create knob_name = { knob_name; best = None }

let observe t ~kernel ~metric =
  match t.best with
  | Some (_, m) when m >= metric -> ()
  | _ -> t.best <- Some (kernel, metric)

let best t = t.best

let pp_report ppf t =
  match t.best with
  | None -> Format.fprintf ppf "%s: no kernels observed@." t.knob_name
  | Some (k, metric) ->
      Format.fprintf ppf "%s: %s (metric=%d)@." t.knob_name k.Event.name metric;
      Callstack.pp ppf (Callstack.of_kernel k)
