(** DL-framework integration (paper §III-E): subscribe to the framework's
    callback surface ([reportMemoryUsage] / [RecordFunction]) and forward
    tensor and operator events, normalized, into the event processor.

    This is the half of PASTA that vendor tools cannot see — it closes the
    gap between pool-managed tensors and the raw runtime allocations the
    profiling libraries report. *)

type t

val attach : Gpusim.Device.t -> processor:Processor.t -> t
(** Events from other devices are filtered out, which is what makes
    multi-GPU profiling attribute tensors to the right rank.  So are events
    raised on any thread other than the one calling [attach]: concurrent
    sessions (the serve daemon's tenants) may profile devices that share
    an id, and must not see each other's framework events. *)

val detach : t -> unit
