(** Framework callback surface.

    The substitute for the PyTorch hooks PASTA integrates with
    (paper §IV-A): [c10::reportMemoryUsage] for allocator traffic and
    [at::RecordFunction] for operator boundaries.  Observers register by
    name; the framework substrate fires events as it runs.  Per-process
    global state, like the real callback registries: adding and removing
    observers is serialized across threads, and firing an event takes no
    lock. *)

type mem_event = {
  ptr : int;
  size_delta : int;  (** positive on allocation, negative on release *)
  total_allocated : int;  (** live framework bytes after the event *)
  total_reserved : int;  (** device bytes held by the caching allocator *)
  device_id : int;
  tag : string;  (** tensor / buffer label *)
}

type op_event = {
  op_name : string;  (** e.g. "aten::addmm" *)
  phase : [ `Begin | `End ];
  device_id : int;
  seq : int;  (** operator sequence number, shared by Begin/End *)
}

val report_memory_usage : mem_event -> unit
val record_function : op_event -> unit

val add_memory_observer : string -> (mem_event -> unit) -> unit
val remove_memory_observer : string -> unit
val add_op_observer : string -> (op_event -> unit) -> unit
val remove_op_observer : string -> unit

val clear_observers : unit -> unit
(** Drop all observers; used between independent experiment runs. *)

val next_op_seq : unit -> int
(** Fresh operator sequence number. *)
