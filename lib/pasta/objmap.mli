(** Memory-object registry: resolve device addresses to objects.

    The event processor keeps this registry up to date from the event
    stream (runtime allocations and DL-framework tensor events).  Tools
    resolve raw access addresses through it, which is what turns address
    traces into object-level insight (paper §V-B2): a *tensor* when a live
    framework tensor covers the address — the cross-layer case only PASTA
    can see — otherwise the runtime *allocation*, otherwise unknown. *)

type obj =
  | Tensor of { ptr : int; bytes : int; tag : string }
  | Device_alloc of { ptr : int; bytes : int; managed : bool }
  | Unknown of int  (** the unresolved address *)

val obj_key : obj -> int
(** Stable identity for grouping (the object base address; the address
    itself for [Unknown]). *)

val obj_bytes : obj -> int
(** Object size; 0 for [Unknown]. *)

val obj_label : obj -> string

type t

val create : unit -> t

val on_alloc : t -> addr:int -> bytes:int -> managed:bool -> unit
val on_free : t -> addr:int -> unit
(** Unknown addresses are ignored (frees may race with attach order). *)

val on_tensor_alloc : t -> ptr:int -> bytes:int -> tag:string -> unit
val on_tensor_free : t -> ptr:int -> unit

val resolve : t -> int -> obj
(** Resolution keeps a single-entry memo of the last successful lookup —
    access streams are sequentially local, so most resolutions hit it.  Any
    registry mutation invalidates the memo.  Every address in the memo's
    object resolves to that object. *)

val memo_stats : t -> int * int
(** [(hits, misses)] of the resolve memo since [create]. *)

val next_base : t -> int -> int
(** The lowest base above the address of a live allocation or tensor
    ([max_int] if none): past an [Unknown] address, every address up to
    it resolves to [Unknown] too, until the registry changes. *)

type view
(** Immutable snapshot of the registry, safe to share across domains. *)

val view : t -> view
val resolve_view : view -> int -> obj
(** Like {!resolve} against the snapshot; no memo, no mutation, and
    therefore callable from any domain concurrently. *)

val live_objects : t -> int
(** Count of live allocations plus live tensors. *)

val live_allocs : t -> (int * int) list
(** (base, bytes) of live runtime allocations. *)

val map_bytes : t -> int
(** Size of the object→count map a GPU-resident analysis would ship to the
    device (16 bytes per live object). *)
