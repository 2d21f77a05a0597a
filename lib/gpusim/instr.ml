type opcode =
  | Ld_global
  | St_global
  | Ld_shared
  | St_shared
  | Ldgsts
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

let all_opcodes =
  [ Ld_global; St_global; Ld_shared; St_shared; Ldgsts; Atom_global; Bar_sync;
    Cluster_bar; Pipeline_commit; Pipeline_wait; Ffma; Fadd; Fmul; Imad; Mov;
    Bra; Call; Ret; Exit ]

let mnemonic = function
  | Ld_global -> "LDG.E"
  | St_global -> "STG.E"
  | Ld_shared -> "LDS"
  | St_shared -> "STS"
  | Ldgsts -> "LDGSTS"
  | Atom_global -> "ATOMG.ADD"
  | Bar_sync -> "BAR.SYNC"
  | Cluster_bar -> "BAR.CLUSTER"
  | Pipeline_commit -> "CP.ASYNC.COMMIT"
  | Pipeline_wait -> "CP.ASYNC.WAIT"
  | Ffma -> "FFMA"
  | Fadd -> "FADD"
  | Fmul -> "FMUL"
  | Imad -> "IMAD"
  | Mov -> "MOV"
  | Bra -> "BRA"
  | Call -> "CALL.REL"
  | Ret -> "RET"
  | Exit -> "EXIT"

let opcode_of_mnemonic s =
  List.find_opt (fun op -> String.equal (mnemonic op) s) all_opcodes

let is_global_memory = function
  | Ld_global | St_global | Ldgsts | Atom_global -> true
  | _ -> false

type t = { pc : int; opcode : opcode; operands : string }

let pp ppf i =
  Format.fprintf ppf "/*%04x*/ %s %s ;" i.pc (mnemonic i.opcode) i.operands
