(** Descriptive statistics over float samples: the summary columns of the
    paper's Table V (min / avg / median / 90th percentile) plus a few extras
    used by the benches and the telemetry latency histograms (p99 for tail
    visibility). *)

type summary = {
  count : int;
  total : float;
  min : float;
  max : float;
  mean : float;
  median : float;
  p90 : float;
  p99 : float;
  stddev : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array.  Does not mutate the
    input. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0;100\]], linear interpolation between
    closest ranks on a sorted copy.  Raises [Invalid_argument] on an empty
    array or [p] out of range. *)

val mean : float array -> float
val geomean : float array -> float
(** Geometric mean; requires all samples strictly positive. *)
