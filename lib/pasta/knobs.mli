(** Inefficiency-location knobs (paper §III-F2).

    Predefined selectors such as [MAX_MEM_REFERENCED_KERNEL] and
    [MAX_CALLED_KERNEL] track the extreme kernel under a metric without
    paying for full-context capture on every event; custom knobs are just
    new named trackers.  Once the run finishes, the winning kernel's
    cross-layer call stack pinpoints the inefficiency (Fig. 4). *)

type t

val max_mem_referenced_kernel : string
val max_called_kernel : string

val create : string -> t
(** A named max-tracker. *)

val observe : t -> kernel:Event.kernel_info -> metric:int -> unit
(** Keep the kernel iff [metric] beats the current maximum.  For
    invocation-count style knobs, pass the running count. *)

val best : t -> (Event.kernel_info * int) option

val pp_report : Format.formatter -> t -> unit
(** Winning kernel, metric, and its cross-layer call stack. *)
