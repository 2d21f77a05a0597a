(** Device instruction vocabulary (SASS-like).

    The NVBit substrate needs a static instruction listing per kernel to
    dump, parse and instrument; the Compute Sanitizer substrate patches only
    the memory / barrier instruction classes.  This module defines the
    instruction set both work over. *)

type opcode =
  | Ld_global
  | St_global
  | Ld_shared
  | St_shared
  | Ldgsts  (** asynchronous global-to-shared copy *)
  | Atom_global
  | Bar_sync
  | Cluster_bar
  | Pipeline_commit
  | Pipeline_wait
  | Ffma
  | Fadd
  | Fmul
  | Imad
  | Mov
  | Bra
  | Call
  | Ret
  | Exit

val opcode_of_mnemonic : string -> opcode option

val is_global_memory : opcode -> bool
(** Loads/stores/atomics touching global memory (incl. LDGSTS). *)

type t = { pc : int; opcode : opcode; operands : string }

val pp : Format.formatter -> t -> unit
(** "/*0040*/ LDG.E R2, [R4] ;" — the textual SASS form. *)
