let tools : (string, unit -> Tool.t) Hashtbl.t = Hashtbl.create 16

let register name make = Hashtbl.replace tools name make
let find name = Hashtbl.find_opt tools name

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) tools [] |> List.sort compare
