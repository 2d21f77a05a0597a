(** Time-series accumulation: ordered (time, value) samples with bucketed
    resampling and series differencing, used for the memory-usage-over-time
    figures (paper Figs. 14 and 15). *)

type t

val create : unit -> t

val record : t -> time:float -> float -> unit
(** Append a sample.  Times must be non-decreasing; a sample earlier than
    the previous one raises [Invalid_argument]. *)

val length : t -> int
val is_empty : t -> bool

val last_value : t -> float
(** 0.0 when empty. *)

val peak : t -> float
(** Maximum recorded value; 0.0 when empty. *)

val duration : t -> float
(** Last time minus first time; 0.0 when fewer than two samples. *)

val bucketize : t -> buckets:int -> float array
(** [bucketize t ~buckets] resamples the step function defined by the
    samples onto [buckets] equal time slots (value at slot end; the series
    is treated as piecewise-constant, holding the last value).  Raises
    [Invalid_argument] if [buckets <= 0] or the timeline is empty. *)

val diff : float array -> float array -> float array
(** Pointwise difference of two equal-length bucketized series. *)

val pp_sparkline : Format.formatter -> float array -> unit
(** Unicode block-character sparkline scaled to the series max. *)
