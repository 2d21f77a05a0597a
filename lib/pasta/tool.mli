(** The PASTA tool template (paper §III-B, "Tool collection").

    A tool is a record of callbacks with no-op defaults; users build one
    by overriding only the functions they need — the paper's "simply
    overriding functions in the PASTA tool collection template".  The
    [fine_grained] field declares what instrumentation the tool needs and
    the analysis model it runs under; the session wires the corresponding
    backend machinery (Fig. 2's two models):

    - [Gpu_accelerated] — device-resident aggregation; the tool receives
      per-kernel object access summaries via [on_mem_summary];
    - [Cpu_sanitizer] / [Cpu_nvbit] — host-side trace analysis; the tool
      receives individual records via [on_access], or batched via
      [on_access_columns].

    [on_event] gets coarse events only.  A sampled access record (Table
    II's global memory access) is not an event: it reaches a tool only
    through [on_access] or [on_access_columns], exactly once. *)

type fine_grained =
  | No_fine_grained
  | Gpu_accelerated
  | Gpu_parallel
      (** device-resident *parallel* reduction over materialized records:
          shards aggregate on a domain pool and merge deterministically;
          the tool receives one {!Devagg.summary} per kernel via
          [on_device_summary] and never sees raw records *)
  | Cpu_sanitizer
  | Cpu_nvbit
  | Instruction_level
      (** device-resident instruction-class patching; the tool receives
          per-kernel behaviour profiles via [on_kernel_profile] *)

val fine_grained_to_string : fine_grained -> string

type t = {
  name : string;
  fine_grained : fine_grained;
  on_event : Event.t -> unit;
      (** every in-range unified event; records never arrive here *)
  on_kernel_begin : Event.kernel_info -> unit;
  on_kernel_end : Event.kernel_info -> Event.kernel_end_summary -> unit;
  on_mem_summary : Event.kernel_info -> (Objmap.obj * int) list -> unit;
      (** per-kernel (object, access count) aggregates, GPU-analyzed *)
  on_device_summary : Event.kernel_info -> Devagg.summary -> unit;
      (** per-kernel merged parallel reduction ([Gpu_parallel] mode) *)
  on_access : Event.kernel_info -> Event.mem_access -> unit;
      (** per-record host analysis (sampled, weighted): one call per
          delivered record, the record's only delivery *)
  on_access_columns : (Event.kernel_info -> Gpusim.Warp.batch -> unit) option;
      (** when set, fine-grained records are delivered as packed batches
          instead of per-record [on_access] calls, zero-copy and with no
          per-dispatch event allocation; the tool reads the Bigarray
          columns directly.  Columns are shared, not copied — treat them
          as read-only.  [None] (the default) keeps the per-record
          stream *)
  on_kernel_profile : Event.kernel_info -> Gpusim.Kernel.profile -> unit;
      (** per-kernel microarchitectural aggregates (divergence, barrier
          stalls, bank conflicts, value ranges), instruction-level mode *)
  on_operator : string -> Event.api_phase -> int -> unit;
  on_tensor :
    [ `Alloc of int * int * string | `Free of int * int ] -> unit;
      (** (ptr, bytes, tag) / (ptr, bytes) *)
  report : Format.formatter -> unit;
}

val default : ?fine_grained:fine_grained -> string -> t
(** A tool that observes nothing and reports a one-line placeholder;
    override fields with [{ (default "name") with ... }]. *)
