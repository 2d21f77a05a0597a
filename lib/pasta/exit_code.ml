(* One table for every CLI exit code, instead of literals scattered per
   subcommand.  cmdliner owns its usual range (124 parse error, 125
   internal error, 123 term error); everything accelprof decides itself
   comes from here. *)

let ok = 0
let failure = 1
let degraded = 3
let unavailable = 4
let rejected = 5
let job_failed = 6
