(** Adaptive sampling governor: keeps fine-grained analysis overhead
    inside a user-set budget by steering the device's record sampling
    rate in a closed feedback loop.

    [Fixed r] pins the rate; [Auto] starts exact (rate 1.0) and applies
    AIMD control at each kernel boundary — multiplicative decrease when
    the just-elapsed window's overhead fraction (from
    {!Telemetry.overhead_snapshot}) exceeds the budget or the record
    buffer shows pressure, additive recovery once comfortably under.

    The governor decides rates; determinism is preserved elsewhere: the
    session records each change ({!Processor.note_rate}) before the
    launch it first applies to, and {!Gpusim.Warp.thin} draws from
    per-(grid, region, chunk) streams, so replaying the recorded schedule
    reproduces the sampled stream byte-for-byte.

    With telemetry [Off] an [Auto] governor has no overhead signal.  It
    degrades to a fixed fallback rate and counts the blind windows
    ({!snapshot.sn_blind_windows}) so health output can warn — it never
    silently pins rate 1.0. *)

type mode = Fixed of float | Auto of { budget : float }

type t

val default_blind_rate : float
(** Fallback rate for telemetry-blind [Auto] governors when no explicit
    rate was configured (0.1). *)

val create : ?fallback:float -> mode -> t
(** [fallback] (default {!default_blind_rate}) is the fixed rate an
    [Auto] governor degrades to when telemetry is off.  Raises
    [Invalid_argument] when any rate or budget is outside (0, 1]. *)

val of_config : ?rate:float -> ?budget:float -> unit -> t option
(** Resolve from explicit values and the environment
    ([ACCEL_PROF_SAMPLE_RATE], [ACCEL_PROF_OVERHEAD_BUDGET]).  A budget
    selects [Auto]; a bare rate selects [Fixed]; with both, the budget
    governs and the rate is the blind fallback; neither yields [None]. *)

val fleet_slice : budget:float -> spent_frac:float -> shards_left:int -> float
(** Overhead-budget slice for the next of [shards_left] sequential fleet
    shards, given the fraction already [spent_frac] by earlier shards:
    [(budget - spent) / shards_left], clamped into [[0.001, 1.0]] so an
    overspent budget throttles successors instead of disabling their
    governors.  Raises [Invalid_argument] on a budget outside (0, 1] or
    non-positive [shards_left]. *)

val mode : t -> mode

val rate : t -> float
(** The rate the next launch should run at. *)

val observe : t -> dropped:int -> stalls:int -> unit
(** Close the loop over the window since the previous call: [dropped] and
    [stalls] are the processor's cumulative ring-buffer drop/stall
    counters.  A no-op for [Fixed] governors. *)

type snapshot = {
  sn_mode : string;
  sn_rate : float;
  sn_windows : int;  (** feedback windows observed *)
  sn_adjustments : int;  (** rate changes applied *)
  sn_violations : int;  (** windows over budget or under ring pressure *)
  sn_floor_hits : int;  (** decreases clamped at the 0.05 floor *)
  sn_blind_windows : int;
      (** windows governed without telemetry (fallback rate in force) *)
}

val snapshot : t -> snapshot
val pp_snapshot : Format.formatter -> snapshot -> unit
