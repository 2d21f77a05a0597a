type mem_event = {
  ptr : int;
  size_delta : int;
  total_allocated : int;
  total_reserved : int;
  device_id : int;
  tag : string;
}

type op_event = {
  op_name : string;
  phase : [ `Begin | `End ];
  device_id : int;
  seq : int;
}

let mem_observers : (string * (mem_event -> unit)) list ref = ref []
let op_observers : (string * (op_event -> unit)) list ref = ref []
let op_seq = ref 0

let report_memory_usage ev = List.iter (fun (_, f) -> f ev) !mem_observers
let record_function ev = List.iter (fun (_, f) -> f ev) !op_observers

(* Registration is serialized: sessions attach and detach from several
   threads at once (the serve daemon's executors), and an unsynchronized
   read-modify-write can lose an update, leaving a finished job's
   observer on the bus.  Readers iterate whichever immutable list is
   current and take no lock. *)
let registry_mu = Mutex.create ()
let update l f = Mutex.protect registry_mu (fun () -> l := f !l)
let without name = List.filter (fun (n, _) -> not (String.equal n name))
let add_memory_observer name f = update mem_observers (fun l -> l @ [ (name, f) ])
let remove_memory_observer name = update mem_observers (without name)
let add_op_observer name f = update op_observers (fun l -> l @ [ (name, f) ])
let remove_op_observer name = update op_observers (without name)

let clear_observers () =
  update mem_observers (fun _ -> []);
  update op_observers (fun _ -> [])

let next_op_seq () =
  incr op_seq;
  !op_seq
