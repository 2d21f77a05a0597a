type t = { device : Gpusim.Device.t; mem_name : string; op_name : string }

let counter = ref 0

let attach device ~processor =
  incr counter;
  let suffix = Printf.sprintf "%d-%d" (Gpusim.Device.id device) !counter in
  let t =
    {
      device;
      mem_name = "pasta-mem-" ^ suffix;
      op_name = "pasta-op-" ^ suffix;
    }
  in
  (* Observers are process-global and device ids repeat across
     concurrently profiled devices (every served job's device is id 0),
     so an event counts only if it was raised on the attaching thread. *)
  let owner = Thread.id (Thread.self ()) in
  let mine device_id =
    device_id = Gpusim.Device.id device && Thread.id (Thread.self ()) = owner
  in
  Dlfw.Callbacks.add_memory_observer t.mem_name (fun ev ->
      if mine ev.Dlfw.Callbacks.device_id then begin
        let time_us = Gpusim.Device.now_us device in
        let payload =
          if ev.Dlfw.Callbacks.size_delta >= 0 then
            Event.Tensor_alloc
              {
                ptr = ev.Dlfw.Callbacks.ptr;
                bytes = ev.Dlfw.Callbacks.size_delta;
                pool_allocated = ev.Dlfw.Callbacks.total_allocated;
                pool_reserved = ev.Dlfw.Callbacks.total_reserved;
                tag = ev.Dlfw.Callbacks.tag;
              }
          else
            Event.Tensor_free
              {
                ptr = ev.Dlfw.Callbacks.ptr;
                bytes = -ev.Dlfw.Callbacks.size_delta;
                pool_allocated = ev.Dlfw.Callbacks.total_allocated;
                pool_reserved = ev.Dlfw.Callbacks.total_reserved;
              }
        in
        Processor.submit processor ~time_us payload
      end);
  Dlfw.Callbacks.add_op_observer t.op_name (fun ev ->
      if mine ev.Dlfw.Callbacks.device_id then
        Processor.submit processor ~time_us:(Gpusim.Device.now_us device)
          (Event.Operator
             {
               name = ev.Dlfw.Callbacks.op_name;
               phase = (match ev.Dlfw.Callbacks.phase with `Begin -> `Enter | `End -> `Exit);
               seq = ev.Dlfw.Callbacks.seq;
             }));
  t

let detach t =
  Dlfw.Callbacks.remove_memory_observer t.mem_name;
  Dlfw.Callbacks.remove_op_observer t.op_name
