(** A small metrics registry in the Prometheus data model.

    Series are registered find-or-create on [(name, labels)] and mutated
    through direct handles, so a hot path pays one field write per update
    and never re-hashes the name.  Three kinds are supported: counters
    (monotone ints — though {!set} exists for mirroring externally-owned
    totals), gauges (floats) and histograms (count/sum plus a bounded
    reservoir of the newest observations, summarized through
    {!Stats.summarize} and exported as a Prometheus [summary] with
    p50/p90/p99 quantiles).

    Handle mutations are not synchronized: series are meant to be updated
    from the coordinator domain only.  Registration and export lock the
    registry. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Find-or-create.  Raises [Invalid_argument] if the series exists with a
    different kind. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?samples:int -> string -> histogram
(** [samples] bounds the quantile reservoir (default 8192); [_count] and
    [_sum] remain exact when it overflows, quantiles reflect the newest
    [samples] observations. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : counter -> int -> unit
(** Overwrite the counter — for mirroring a total owned elsewhere (e.g.
    bytes a writer has flushed). *)

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** Keep the maximum of the current value and [v] — high-water marks. *)

val observe : histogram -> float -> unit

val find_counter : t -> ?labels:(string * string) list -> string -> int option
val find_gauge : t -> ?labels:(string * string) list -> string -> float option

val counter_samples : t -> (string * (string * string) list * int) list
(** Every counter series in registration order — the deterministic facts a
    replayed trace must reproduce. *)

val reset : t -> unit
(** Zero every registered series (handles stay valid). *)

val to_prometheus : t -> string

val to_prometheus_all : t list -> string
(** Merge several registries into one exposition; samples sharing a metric
    name are grouped under a single [# TYPE] block as the format
    requires. *)
