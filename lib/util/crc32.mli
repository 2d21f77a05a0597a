(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), table-driven.

    Used to checksum trace chunks in the [.ptrace] capture format: cheap
    enough to run on every chunk flush, and strong enough to catch the
    corruption modes the fault injector produces (bit flips, truncation,
    duplicated framing). *)

val string : string -> int
(** One-shot checksum of a whole string. *)
