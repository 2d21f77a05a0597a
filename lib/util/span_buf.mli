(** Fixed-capacity span storage for self-telemetry: a cyclic buffer that
    keeps the newest spans, overwrites the oldest, and counts what it
    dropped — full-fidelity tracing can stay enabled without unbounded
    growth.  Mutex-guarded; safe to record from any domain. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;  (** recording domain id *)
  sp_dev : int;  (** device the recording context was profiling, [-1] none *)
  sp_depth : int;  (** nesting depth at begin, 0 = outermost *)
  sp_wall0_us : float;  (** wall-clock begin, absolute microseconds *)
  sp_dur_us : float;
  sp_sim0_us : float;  (** simulated clock at begin, for correlation *)
  sp_sim1_us : float;  (** simulated clock at end *)
}

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val record : t -> span -> unit
val pushed : t -> int
(** Total spans ever recorded, including overwritten ones. *)

val dropped : t -> int
(** [pushed - length]: spans lost to overwriting. *)

val iter : t -> (span -> unit) -> unit
(** Oldest to newest, over a snapshot taken under the lock. *)

val clear : t -> unit
