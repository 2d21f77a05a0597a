(** NCCL-like collectives over simulated devices.

    Each device owns a persistent communication buffer tensor (allocated
    once per trainer, giving Megatron-LM's long-lived communication
    tensors, paper §V-D2).  Collectives launch a ring kernel per device
    and move bytes across the peer link, advancing every participant's
    clock to the collective's completion time. *)

type t

val create : ?node_of:(int -> int) -> Dlfw.Ctx.t list -> buffer_bytes:int -> t
(** One communicator over the given per-device contexts.  [node_of] maps a
    rank to its node (default: all ranks on one node); ring steps that
    cross a node boundary pay interconnect bandwidth on top of the peer
    link, the way NCCL rings slow down over InfiniBand.  Raises
    [Invalid_argument] on fewer than two ranks. *)

val ranks : t -> int

val all_reduce : t -> bytes:int -> unit
(** Ring all-reduce of [bytes] payload across all ranks. *)

val local_reduce : t -> rank:int -> bytes:int -> unit
(** One rank's share of an all-reduce, charged only to that rank's device
    — the right primitive when ranks are simulated sequentially. *)

val send_recv : t -> src:int -> dst:int -> bytes:int -> unit
(** Point-to-point activation transfer between two ranks (rank = index in
    the creation list). *)

val destroy : t -> unit
(** Release the communication buffers. *)
