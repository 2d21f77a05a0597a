type entry = {
  device : Gpusim.Device.t;
  session : Pasta.Session.t;
  mem : Mem_timeline.t;
}

type t = { entries : entry list }

let attach ?(has_context = fun _ -> true) devices =
  let entries =
    List.filter_map
      (fun device ->
        if has_context device then begin
          let mem = Mem_timeline.create () in
          let session = Pasta.Session.attach ~tool:(Mem_timeline.tool mem) device in
          Some { device; session; mem }
        end
        else None)
      devices
  in
  { entries }

let detach t =
  List.map
    (fun e -> (Gpusim.Device.id e.device, Pasta.Session.detach e.session))
    t.entries

let timelines t = List.map (fun e -> (Gpusim.Device.id e.device, e.mem)) t.entries
let instrumented_devices t = List.length t.entries
