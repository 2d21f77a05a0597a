(** Centralized CLI exit codes, used by every accelprof subcommand.

    - {!ok} (0) — success.
    - {!failure} (1) — generic hard failure (also what [trace diff] uses
      for diverging traces, like diff(1)).
    - {!degraded} (3) — the run {e completed} but lost data: quarantined
      tools, dropped records, or fleet devices missing from the
      aggregate.
    - {!unavailable} (4) — serve mode: the listen endpoint could not be
      bound, or a client could not reach the daemon.
    - {!rejected} (5) — serve mode: admission control refused the job
      (bounded queue full or tenant over quota) — the 429 of the CLI.
    - {!job_failed} (6) — serve mode: the submitted job errored, was
      cancelled, or hit its deadline.

    cmdliner keeps its own range (123-125) for parse/term errors. *)

val ok : int
val failure : int
val degraded : int
val unavailable : int
val rejected : int
val job_failed : int
