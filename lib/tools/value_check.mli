(** Value-based analysis (paper §III-H, "Value-based analysis tools"):
    a numeric range sanitizer plus redundant value-load detection.

    From operand-value instrumentation the tool tracks each kernel's
    observed value range and flags kernels whose intermediates exceed the
    fp16 representable range (|v| > 65504) — exactly the hazards that
    surface when a model is later run in half precision — and kernels
    whose values dip below the fp16 subnormal floor (risking flush-to-zero
    underflow).  It also aggregates redundant loads (loads observing the
    previously loaded value), the signal for load/store elimination. *)

val fp16_max : float

type hazard = Overflow | Underflow

val hazards_of_range : value_min:float -> value_max:float -> hazard list
(** Classify an observed value range against the fp16 limits. *)

type row = {
  kernel : string;
  launches : int;
  value_min : float;
  value_max : float;
  hazards : hazard list;
  loads : int;  (** total weighted loads observed *)
  redundant : int;
}

val redundancy : row -> float

type t

val create : unit -> t
val tool : t -> Pasta.Tool.t

val flagged : t -> row list
(** Kernels with at least one hazard. *)

val most_redundant : t -> row option
(** Highest redundancy among kernels with at least 1000 loads. *)

val report : t -> Format.formatter -> unit
