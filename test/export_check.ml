(* Export check: every [val] of a library interface ([lib/**/*.mli])
   must be used outside its own module by code that a run executes, as a
   textual [Module.name] in the code of [lib/], [bin/], [perfbench/] or
   [examples/] (comments and string literals do not count), unless the
   allowlist names it with a reason.  A [val] used only by [test/] or
   [bench/] fails as well as one used nowhere: the specs and harnesses
   that only check the program belong with the checks.  An allowlist
   entry that names no [val], or a [val] that a run uses after all,
   fails the check too, so the list cannot go stale.

   Usage: export_check.exe ROOT ALLOWLIST *)

let user_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* The directories whose users do not count as a run. *)
let check_dirs = [ "bench"; "test" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then if name = "_build" then [] else files_under path
           else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
             [ path ]
           else [])

(* [src] with comments (nested) and string literals blanked out, so that
   only code is searched.  Character literals are skipped whole, so that
   ['"'] opens no string. *)
let code_of src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  let rec string_end i =
    if i >= n then n
    else if src.[i] = '\\' then string_end (i + 2)
    else if src.[i] = '"' then i + 1
    else string_end (i + 1)
  in
  let rec comment_end depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then comment_end (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if src.[i] = '"' then comment_end depth (string_end (i + 1))
    else comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        let j = comment_end 1 (i + 2) in
        for k = i to j - 1 do blank k done;
        go j
      end
      else if src.[i] = '"' then begin
        let j = string_end (i + 1) in
        for k = i + 1 to j - 2 do blank k done;
        go j
      end
      else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then go (i + 3)
      else if src.[i] = '\'' && i + 3 < n && src.[i + 1] = '\\' && src.[i + 3] = '\'' then
        go (i + 4)
      else go (i + 1)
  in
  go 0;
  Bytes.to_string out

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let ident_end s i =
  let rec go j = if j < String.length s && is_ident s.[j] then go (j + 1) else j in
  go i

(* The last component of the module path that starts at [i]. *)
let rec module_path_end code i =
  let j = ident_end code i in
  if j + 1 < String.length code && code.[j] = '.' && 'A' <= code.[j + 1] && code.[j + 1] <= 'Z'
  then module_path_end code (j + 1)
  else (j, String.sub code i (j - i))

let words code =
  String.split_on_char '\n' code
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")

(* Every [Module.name] in [code], [name] a value (lowercase) identifier.
   A module alias ([module X = A.M]) stands for [M]; a module opened in
   [code] ([open M], [let open M in], [M.( ... )]) is taken to lend
   every lowercase identifier of [code]. *)
let qualified_uses code =
  let n = String.length code in
  let uses = Hashtbl.create 64 in
  let aliases = Hashtbl.create 8 and opened = ref [] in
  let ws = Array.of_list (words code) in
  Array.iteri
    (fun i w ->
      let next k = if i + k < Array.length ws then ws.(i + k) else "" in
      let target w = snd (module_path_end w 0) in
      if w = "module" && next 2 = "=" && next 3 <> "" then
        match (next 3).[0] with
        | 'A' .. 'Z' -> Hashtbl.replace aliases (next 1) (target (next 3))
        | _ -> ()
      else if w = "open" && next 1 <> "" then
        match (next 1).[0] with 'A' .. 'Z' -> opened := target (next 1) :: !opened | _ -> ())
    ws;
  let add m name =
    Hashtbl.replace uses (m, name) ();
    Option.iter (fun m -> Hashtbl.replace uses (m, name) ()) (Hashtbl.find_opt aliases m)
  in
  let lowercase = ref [] in
  let rec go i =
    if i < n then
      match code.[i] with
      | 'A' .. 'Z' when i = 0 || not (is_ident code.[i - 1] || code.[i - 1] = '.') ->
        let j, m = module_path_end code i in
        (if j + 1 < n && code.[j] = '.' then
           match code.[j + 1] with
           | 'a' .. 'z' | '_' ->
             let k = ident_end code (j + 1) in
             add m (String.sub code (j + 1) (k - j - 1))
           | '(' -> opened := m :: !opened
           | _ -> ());
        go j
      | ('a' .. 'z' | '_') when i = 0 || not (is_ident code.[i - 1]) ->
        let j = ident_end code i in
        lowercase := String.sub code i (j - i) :: !lowercase;
        go j
      | _ -> go (i + 1)
  in
  go 0;
  List.iter
    (fun m ->
      let m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
      List.iter (fun name -> Hashtbl.replace uses (m, name) ()) !lowercase)
    !opened;
  uses

(* The modules [code] includes ([include A.M] re-exports [M]'s values). *)
let includes code =
  let rec go = function
    | "include" :: w :: rest when w.[0] >= 'A' && w.[0] <= 'Z' ->
      snd (module_path_end w 0) :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (words code)

(* The [val]s an interface declares, with their line numbers. *)
let vals code =
  String.split_on_char '\n' code
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (lnum, line) ->
         if String.length line > 4 && String.sub line 0 4 = "val " then
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           match rest.[0] with
           | 'a' .. 'z' | '_' -> Some (String.sub rest 0 (ident_end rest 0), lnum)
           | _ -> None
         else None)

let module_of path = String.capitalize_ascii Filename.(remove_extension (basename path))

(* Allowlist lines: [Module.name  reason]; blank lines and [#] comments
   are skipped.  An entry without a reason is an error. *)
let allowlist path =
  read_file path |> String.split_on_char '\n' |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.index_opt l ' ' with
         | Some i when String.trim (String.sub l i (String.length l - i)) <> "" ->
           String.sub l 0 i
         | _ -> failwith (Printf.sprintf "export allowlist: %S has no reason" l))

let () =
  let root = Sys.argv.(1) and allowed = allowlist Sys.argv.(2) in
  let files =
    List.concat_map (fun d -> files_under (Filename.concat root d)) user_dirs
    |> List.map (fun path ->
           let code = code_of (read_file path) in
           (path, qualified_uses code, includes code))
  in
  (* A value of [m] is also reached as [N.name] when module [N] includes [m]. *)
  let names_of m =
    m
    :: List.filter_map
         (fun (f, _, incl) -> if List.mem m incl then Some (module_of f) else None)
         files
  in
  let own path f = Filename.remove_extension f = Filename.remove_extension path in
  let checks f =
    List.exists (fun d -> String.starts_with ~prefix:(Filename.concat root d ^ "/") f) check_dirs
  in
  (* [`Run], [`Checks] (only [test/] or [bench/] use it) or [`Nowhere]. *)
  let users path m name =
    let names = names_of m in
    let users =
      List.filter
        (fun (f, uses, _) ->
          (not (own path f)) && List.exists (fun m -> Hashtbl.mem uses (m, name)) names)
        files
    in
    if users = [] then `Nowhere
    else if List.for_all (fun (f, _, _) -> checks f) users then `Checks
    else `Run
  in
  let declared = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      if Filename.check_suffix path ".mli" then begin
        let m = module_of path in
        List.iter
          (fun (name, lnum) ->
            let key = m ^ "." ^ name in
            declared := key :: !declared;
            match (users path m name, List.mem key allowed) with
            | `Nowhere, false ->
              errors :=
                Printf.sprintf "%s:%d: %s is used nowhere outside its module" path lnum key
                :: !errors
            | `Checks, false ->
              errors :=
                Printf.sprintf "%s:%d: %s is used only by test/ and bench/" path lnum key
                :: !errors
            | `Run, true ->
              errors :=
                Printf.sprintf "allowlisted %s is used by a run: drop the entry" key :: !errors
            | _ -> ())
          (vals (code_of (read_file path)))
      end)
    (files_under (Filename.concat root "lib"));
  List.iter
    (fun key ->
      if not (List.mem key !declared) then
        errors := Printf.sprintf "allowlisted %s names no val" key :: !errors)
    allowed;
  match List.rev !errors with
  | [] -> ()
  | errors ->
    List.iter prerr_endline errors;
    exit 1
