type t = {
  start_grid : int option;
  end_grid : int option;
  mutable depth : int;
  mutable ever_annotated : bool;
}

let create ?start_grid ?end_grid ?(annotations_only = false) () =
  { start_grid; end_grid; depth = 0; ever_annotated = annotations_only }

let of_config () =
  create ?start_grid:(Config.start_grid_id ()) ?end_grid:(Config.end_grid_id ()) ()

let annot_start t _label =
  t.depth <- t.depth + 1;
  t.ever_annotated <- true

let annot_end t label =
  if t.depth <= 0 then
    invalid_arg ("Range.annot_end: pasta.end without pasta.start (" ^ label ^ ")");
  t.depth <- t.depth - 1

let annotation_depth t = t.depth

let grid_ok t grid_id =
  (match t.start_grid with Some s -> grid_id >= s | None -> true)
  && match t.end_grid with Some e -> grid_id <= e | None -> true

let annot_ok t = (not t.ever_annotated) || t.depth > 0

let active t ~grid_id = grid_ok t grid_id && annot_ok t
let active_now t = annot_ok t
