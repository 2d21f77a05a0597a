(* The dead-exports lint fixture.  Each comment says how the fixture's
   consumers use the value, and whether the lint reports it. *)

val by_alias : int -> int
(** Used through a local alias of this module. *)

val by_wrapper : int
(** Used through the library wrapper path. *)

val own_only : int -> int
(** Used only inside a.ml: reported. *)

val test_only : int
(** Used only from test/, through an open: not reported. *)

val listed : int
(** Used by nothing in the build, but allowlisted: not reported. *)

module Nested : sig
  val used : int
  (** Used through a [let module] alias. *)

  val unused : int
  (** Reported. *)
end
