(* Unused-export lint: every [val] of a library interface needs a consumer
   in another compilation unit.

     dead_exports ALLOWLIST EXPORTER_DIR CONSUMER_DIR...

   Run from the build root once the typed trees exist (dune's @check).
   The exports are the [val]s, nested signatures included, of the .cmti
   files under EXPORTER_DIR; the uses are the value references in the .cmt
   files under each CONSUMER_DIR, normalized through module aliases in the
   environment the compiler saw there.  A module used whole (a functor
   argument, an include, a packed module) uses every value in it; an alias
   binding or an open by itself uses none.

   ALLOWLIST holds one public path per line ("#" starts a comment), each
   an export whose consumer lives outside the build.  Exits 1 on an
   unlisted unused export and on a listed path that is no longer exported
   or has a consumer now; exits 2 when a typed tree cannot be read or its
   environment rebuilt, rather than lose its uses. *)

open Typedtree

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("dead_exports: " ^ s); exit 2) fmt

let describe e =
  match Location.error_of_exn e with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | _ -> Printexc.to_string e

let rec files dir ext =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then files p ext
         else if Filename.check_suffix p ext then [ p ]
         else [])

(* [Pasta__Config.snapshot] is [Pasta.Config.snapshot] to its users. *)
let public key = Misc.replace_substring ~before:"__" ~after:"." key

(* (key, file, line) for every [val] of a .cmti, e.g.
   ("Pasta__Serve.Proto.encode", "lib/pasta/serve.mli", 12). *)
let exports cmti =
  let rec walk prefix items =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            let pos = vd.val_loc.loc_start in
            [ (prefix ^ "." ^ vd.val_name.txt, pos.pos_fname, pos.pos_lnum) ]
        | Tsig_module
            { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
            walk (prefix ^ "." ^ name) sg.sig_items
        | _ -> [])
      items
  in
  let cmt = Cmt_format.read_cmt cmti in
  match cmt.cmt_annots with
  | Interface sg -> walk cmt.cmt_modname sg.sig_items
  | _ -> fail "%s: not an interface" cmti

let used = Hashtbl.create 4096 (* value keys referenced from another unit *)
let whole = Hashtbl.create 64 (* module keys used whole from another unit *)
let load_path = ref []

let std_dirs =
  let std = Config.standard_library in
  [ std; Filename.concat std "threads"; Filename.concat std "unix" ]

let consume cmt_file =
  let cmt = Cmt_format.read_cmt cmt_file in
  let paths = cmt.cmt_loadpath @ std_dirs in
  if paths <> !load_path then begin
    (* Units of different executables share names (dune__exe), so the
       loaded interfaces go with the load path. *)
    load_path := paths;
    Load_path.init ~auto_include:Load_path.no_auto_include paths;
    Env.reset_cache ();
    Envaux.reset_cache ()
  end;
  (* A unit names its own values by local paths, so only paths rooted at
     another compilation unit are kept. *)
  let note table env normalize loc path =
    let p = normalize (Some loc) (Envaux.env_of_only_summary env) path in
    if Ident.persistent (Path.head p) then Hashtbl.replace table (Path.name p) ()
  in
  let open Tast_iterator in
  let unless_alias sub me =
    match me.mod_desc with Tmod_ident _ -> () | _ -> sub.module_expr sub me
  in
  let it =
    {
      default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (path, _, _) -> note used e.exp_env Env.normalize_value_path e.exp_loc path
          | Texp_letmodule (_, _, _, me, body) ->
              unless_alias sub me;
              sub.expr sub body
          | _ -> default_iterator.expr sub e);
      module_expr =
        (fun sub me ->
          match me.mod_desc with
          | Tmod_ident (path, _) -> note whole me.mod_env Env.normalize_module_path me.mod_loc path
          | _ -> default_iterator.module_expr sub me);
      module_binding = (fun sub mb -> unless_alias sub mb.mb_expr);
      open_declaration = (fun sub od -> unless_alias sub od.open_expr);
    }
  in
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> fail "%s: not an implementation" cmt_file

(* Referenced by name, or inside a module used whole. *)
let has_consumer key =
  let rec in_whole k =
    match String.rindex_opt k '.' with
    | None -> false
    | Some i ->
        let m = String.sub k 0 i in
        Hashtbl.mem whole m || in_whole m
  in
  Hashtbl.mem used key || in_whole key

(* (public path, line) of every entry. *)
let read_allowlist file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.mapi (fun i line -> (String.trim (fst (Misc.cut_at (line ^ "#") '#')), i + 1))
  |> List.filter (fun (entry, _) -> entry <> "")

let () =
  match List.tl (Array.to_list Sys.argv) with
  | allow_file :: exporter_dir :: (_ :: _ as consumer_dirs) ->
      let allow = try read_allowlist allow_file with Sys_error msg -> fail "%s" msg in
      let exported =
        List.concat_map exports (files exporter_dir ".cmti")
        |> List.sort (fun (_, f, l) (_, f', l') -> compare (f, l) (f', l'))
      in
      List.iter
        (fun dir ->
          List.iter
            (fun cmt -> try consume cmt with e -> fail "%s: %s" cmt (describe e))
            (files dir ".cmt"))
        consumer_dirs;
      let problems = ref 0 in
      let report fmt =
        incr problems;
        Printf.printf fmt
      in
      List.iter
        (fun (key, file, line) ->
          if not (has_consumer key || List.mem_assoc (public key) allow) then
            report "%s:%d: %s has no consumer\n" file line (public key))
        exported;
      List.iter
        (fun (name, line) ->
          match List.find_opt (fun (key, _, _) -> public key = name) exported with
          | None -> report "%s:%d: %s is not exported\n" allow_file line name
          | Some (key, _, _) when has_consumer key ->
              report "%s:%d: %s has a consumer now\n" allow_file line name
          | Some _ -> ())
        allow;
      exit (if !problems > 0 then 1 else 0)
  | _ -> fail "usage: dead_exports ALLOWLIST EXPORTER_DIR CONSUMER_DIR..."
