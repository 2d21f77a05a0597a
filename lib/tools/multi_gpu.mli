(** Multi-GPU profiling support (paper §IV-D, §V-D2, Fig. 15).

    One PASTA session per device, each with its own memory-timeline tool
    — the per-rank profile generation the paper describes.  Only processes
    that actually drive a device get instrumented (the
    [CUDA_INJECTION64_PATH] behaviour): attaching skips devices with a
    [has_context] predicate returning false. *)

type t

val attach :
  ?has_context:(Gpusim.Device.t -> bool) -> Gpusim.Device.t list -> t
(** Default predicate: all devices have a context. *)

val detach : t -> (int * Pasta.Session.result) list
(** Per-device results, in attach order. *)

val timelines : t -> (int * Mem_timeline.t) list
(** (device id, timeline tool state). *)

val instrumented_devices : t -> int
