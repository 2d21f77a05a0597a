(* Fixed-capacity span storage for the self-telemetry layer: a cyclic
   buffer that keeps the newest spans and counts what it overwrote, so
   full-fidelity tracing can stay on without unbounded growth. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;       (* recording domain id *)
  sp_dev : int;       (* device the recording context was profiling, -1 none *)
  sp_depth : int;     (* nesting depth at begin, 0 = outermost *)
  sp_wall0_us : float;
  sp_dur_us : float;
  sp_sim0_us : float; (* simulated clock at begin/end, for correlation *)
  sp_sim1_us : float;
}

let dummy =
  {
    sp_name = "";
    sp_cat = "";
    sp_tid = 0;
    sp_dev = -1;
    sp_depth = 0;
    sp_wall0_us = 0.0;
    sp_dur_us = 0.0;
    sp_sim0_us = 0.0;
    sp_sim1_us = 0.0;
  }

type t = {
  slots : span array;
  mutable next : int;   (* next write position *)
  mutable stored : int; (* valid slots, <= capacity *)
  mutable pushed : int; (* total record calls *)
  mu : Mutex.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Span_buf.create: capacity must be positive";
  { slots = Array.make capacity dummy; next = 0; stored = 0; pushed = 0; mu = Mutex.create () }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let record t sp =
  locked t (fun () ->
      t.slots.(t.next) <- sp;
      t.next <- (t.next + 1) mod Array.length t.slots;
      if t.stored < Array.length t.slots then t.stored <- t.stored + 1;
      t.pushed <- t.pushed + 1)

let pushed t = locked t (fun () -> t.pushed)
let dropped t = locked t (fun () -> t.pushed - t.stored)

let iter t f =
  (* Oldest first.  Snapshot under the lock, apply [f] outside it. *)
  let snap =
    locked t (fun () ->
        let n = t.stored in
        let cap = Array.length t.slots in
        let first = (t.next - n + cap) mod cap in
        Array.init n (fun i -> t.slots.((first + i) mod cap)))
  in
  Array.iter f snap

let clear t =
  locked t (fun () ->
      t.next <- 0;
      t.stored <- 0;
      t.pushed <- 0)
