(** Minimal JSON codec for the newline-delimited serve protocol.

    One value type, a single-line printer (strings are escaped, so the
    output never contains a raw newline — the framing invariant of a
    line-delimited protocol) and a strict recursive-descent parser.
    Integers survive a round trip as [Int]; non-finite floats print as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Single-line rendering (no raw newlines anywhere in the output). *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val of_string_opt : string -> t option

(** {2 Object accessors}

    Each returns [None] when the value is not an object, the key is
    absent, or the field has the wrong type.  [int_field] accepts an
    integral float inside [int]'s range [\[-2^62, 2^62)], and nothing
    else; [float_field] accepts an int, and refuses a non-finite float
    (one that overflowed while parsing, such as [1e999]). *)

val mem : string -> t -> t option
val str_field : string -> t -> string option
val int_field : string -> t -> int option
val float_field : string -> t -> float option
val bool_field : string -> t -> bool option
