(** Shape-level tensors.

    Tensors carry no data — the simulator needs only extents — but they
    are real allocations in the caching pool, with PyTorch-style shared
    ownership: a tensor starts with one reference, {!retain} adds one, and
    the storage returns to the pool when the last reference is
    {!release}d.  Use-after-free and double-release raise, so the tests
    can verify the framework substrate's lifetime discipline. *)

type t

val create : Allocator.t -> ?name:string -> Shape.t -> Dtype.t -> t
val shape : t -> Shape.t
val dtype : t -> Dtype.t
val numel : t -> int
val bytes : t -> int
val base : t -> int
(** Device address of the first element.  Raises [Invalid_argument] when
    the tensor has been freed. *)

val id : t -> int
val is_live : t -> bool
val refcount : t -> int

val reshape : t -> Shape.t -> t
(** In-place metadata view: same storage under a new shape with the same
    byte count (PyTorch [view]).  Returns the tensor itself. *)

val retain : t -> t
(** Returns the tensor itself, for chaining. *)

val release : t -> unit
(** Drop one reference; frees the storage at zero.  Raises
    [Invalid_argument] if already freed. *)
