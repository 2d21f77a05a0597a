(** Named tool registry: the mechanism behind selecting a PASTA tool with
    a command-line option or the [PASTA_TOOL] environment variable
    (paper §III-C, workflow step 4). *)

val register : string -> (unit -> Tool.t) -> unit
(** Later registrations under the same name replace earlier ones. *)

val find : string -> (unit -> Tool.t) option
val names : unit -> string list
(** Sorted. *)
