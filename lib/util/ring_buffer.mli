(** Fixed-capacity FIFO ring buffer.

    Models the device-side trace buffer of the CPU-analysis profiling
    pipelines (paper Fig. 2a): producers push records until the buffer is
    full, at which point the producing kernel must stall while a consumer
    drains it. *)

type 'a t

type overflow = Drop_oldest | Drop_newest | Block
(** What a bounded pipeline stage does when a producer outruns it:
    evict the oldest record, reject the incoming one, or stall the
    producer until the consumer drains ([Block] is lossless). *)

val overflow_of_string : string -> overflow option
(** Parses "drop-oldest" / "drop-newest" / "block" (case-insensitive). *)

val overflow_to_string : overflow -> string

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] appends [x] and returns [true], or returns [false] without
    modifying [t] when full. *)

val push_overflow :
  'a t -> overflow:overflow -> 'a -> [ `Stored | `Evicted of 'a | `Rejected | `Full ]
(** [push_overflow t ~overflow x] applies the overflow policy when [t] is
    full: [Drop_oldest] evicts and returns the displaced element
    ([`Evicted old]), [Drop_newest] refuses [x] ([`Rejected]), and [Block]
    stores nothing and returns [`Full] — the caller must drain and retry
    (the producer "stalls").  On a non-full buffer all policies store and
    return [`Stored]. *)

val pop : 'a t -> 'a option

val drain : 'a t -> 'a list
(** Remove and return all elements, oldest first. *)

val clear : 'a t -> unit
