(** Range-specific analysis (paper §III-F1).

    Two mechanisms select the sub-region of the run a tool should see:

    - grid-id bounds ([START_GRID_ID] / [END_GRID_ID] environment
      variables) for plain GPU applications;
    - [pasta.start ()] / [pasta.end ()] code annotations, for DL
      workloads where the interesting unit is a layer, a forward/backward
      pass, or any custom code region.

    When one or more annotations are seen the range becomes
    annotation-driven: events are in range only inside a start/end pair.
    Grid bounds apply on top in all cases. *)

type t

val create :
  ?start_grid:int -> ?end_grid:int -> ?annotations_only:bool -> unit -> t
(** With [annotations_only] the range starts closed and only annotation
    pairs open it; otherwise everything is in range until the first
    annotation is seen, after which the range becomes annotation-driven. *)

val of_config : unit -> t
(** Bounds from {!Config.start_grid_id} / {!Config.end_grid_id}. *)

val annot_start : t -> string -> unit
val annot_end : t -> string -> unit
(** Raises [Invalid_argument] on unbalanced [annot_end]. *)

val annotation_depth : t -> int

val active : t -> grid_id:int -> bool
(** Whether a kernel-scoped event with this grid id is in range. *)

val active_now : t -> bool
(** Whether non-kernel events are in range (annotation state only). *)
