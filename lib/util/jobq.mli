(** Bounded multi-tenant work queue with fair round-robin dequeue.

    Each tenant owns a FIFO; {!pop} serves non-empty tenants in
    round-robin order, so one tenant flooding the queue deepens only its
    own FIFO and cannot starve the others.  Admission is two-level: a
    global [capacity] bounds total queued items and a per-tenant [quota]
    bounds any one tenant's share.  All operations are thread-safe;
    fairness is deterministic given the same push/pop sequence. *)

type 'a t

type reject = Queue_full | Tenant_quota

val reject_name : reject -> string

val create : ?capacity:int -> ?quota:int -> unit -> 'a t
(** Defaults: capacity 64, per-tenant quota 16.  Raises
    [Invalid_argument] when either is < 1. *)

val push : 'a t -> tenant:string -> 'a -> (unit, reject) result
(** Enqueue for [tenant]; rejected (never blocks) when the global
    capacity or the tenant's quota is exhausted, or the queue is closed
    ([Queue_full]). *)

val pop : 'a t -> 'a option
(** Dequeue the next item in tenant-fair order, blocking while the queue
    is empty.  [None] once the queue is closed and drained. *)

val remove : 'a t -> ('a -> bool) -> 'a option
(** Remove and return the first queued item satisfying the predicate
    (tenant ring order, FIFO within a tenant) — cancellation of a queued
    job. *)

val length : 'a t -> int

val tenants : 'a t -> (string * int) list
(** Every tenant ever seen with its current queue depth, in ring order. *)

val capacity : 'a t -> int
val quota : 'a t -> int

val close : 'a t -> unit
(** Reject further pushes and wake every blocked {!pop}.  Queued items
    can still be drained. *)
