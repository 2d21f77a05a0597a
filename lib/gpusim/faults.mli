(** Deterministic fault injection for the simulated device.

    A production profiler must keep working when the machine under it
    misbehaves: trace records arrive corrupted, events get lost or
    delivered twice, memory develops ECC errors, kernels hang.  This
    module injects exactly those failures into the device's profiling
    hook bus, driven entirely by a {!Pasta_util.Det_rng} stream so that a
    run with a fixed seed reproduces the same faults bit-for-bit.

    Install an injector with {!Device.set_faults}; the device then routes
    every decision point (event emission, access materialization, kernel
    timing, per-launch memory checks) through it. *)

type rates = {
  corrupt_access : float;  (** P(a materialized access record is corrupted) *)
  drop_event : float;  (** P(a droppable probe event is lost) *)
  duplicate_event : float;  (** P(a droppable probe event is delivered twice) *)
  ecc_per_kernel : float;  (** P(a launch flips a bit in a live allocation) *)
  stuck_kernel : float;  (** P(a launch hangs for 10000x its time) *)
}

type stats = {
  mutable corrupted_accesses : int;
  mutable dropped_events : int;
  mutable duplicated_events : int;
  mutable ecc_errors : int;
  mutable ecc_addrs : int list;  (** addresses hit, most recent first *)
  mutable stuck_kernels : int;
}

type t

val create : ?rates:rates -> seed:int64 -> unit -> t
val seed : t -> int64
val rates : t -> rates
val stats : t -> stats

(** {2 Decision points, called by {!Device}} *)

val event_fate : t -> [ `Deliver | `Drop | `Duplicate ]
(** Fate of one droppable probe event. *)

val corrupt_batch : rates:rates -> seed:int64 -> grid_id:int -> Warp.batch -> int
(** [corrupt_batch ~rates ~seed ~grid_id b] perturbs records of [b] in
    place, drawing from a stream keyed purely by
    [(seed, grid_id, b.b_region, b.b_chunk)], and returns how many records
    were corrupted.  Stateless and domain-safe: the same faults hit the
    same records for any domain count.  Callers account the returned count
    with {!note_corrupted} during the ordered merge.  Raises
    [Invalid_argument] on a descriptor ({!Warp.shape}) when
    [rates.corrupt_access > 0]: it has no columns to corrupt in place. *)

val note_corrupted : t -> int -> unit
(** Add [n] to the injector's corrupted-access total. *)

val kernel_duration_us : t -> float -> float
(** Possibly turn the launch into a stuck kernel. *)

val ecc_check : t -> Device_mem.t -> int option
(** Possibly pick an address inside a live allocation for an ECC-style
    single-bit error; [None] when no error fires this launch. *)

val pp_stats : Format.formatter -> stats -> unit

(** {2 Fleet-scale failure modes}

    Whole-device failures for fleet profiling ({!Pasta.Fleet}-style
    orchestration): a device crashing mid-kernel, a straggler running a
    slowdown factor behind its peers, and a summary arriving corrupted at
    a reduction merge node.  All decisions are {e pure} functions of the
    seed and the decision's coordinates — no injector state — so a fleet
    run reproduces the same failures bit-for-bit at any domain count. *)

type fleet_rates = {
  crash : float;  (** P(an attempt crashes mid-kernel) *)
  straggle : float;  (** P(an attempt runs as a straggler) *)
  straggle_factor : float;  (** central slowdown multiplier for stragglers *)
  corrupt_summary : float;
      (** P(a child summary arrives corrupted at a merge node) *)
}

val default_fleet_rates : fleet_rates
(** Noticeable at fleet scale: a few percent of devices per attempt. *)

type device_fate =
  | Healthy
  | Crash of int  (** crashes inside this launch ordinal (0-based) *)
  | Straggle of float  (** wall-time slowdown factor, >= 2 *)

val device_fate :
  rates:fleet_rates ->
  seed:int64 ->
  device:int ->
  attempt:int ->
  kernels:int ->
  device_fate
(** Fate of one device attempt, keyed purely by [(seed, device, attempt)];
    [kernels] bounds the crash point. *)

val corrupt_summary_at :
  rates:fleet_rates -> seed:int64 -> node:int -> child:int -> bool
(** Whether the [child]'th input of merge node [node] arrives corrupted,
    keyed purely by [(seed, node, child)]. *)
