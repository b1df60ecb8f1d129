type node = {
  gn_id : string;
  gn_label : string;
  gn_coords : (float * float) option;
}

type parsed = {
  g_nodes : node list;
  g_edges : (string * string) list;
}

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* A tiny XML tokenizer: enough for GraphML (no namespaces, CDATA or
   entities beyond the five standard ones).                             *)
(* ------------------------------------------------------------------ *)

type token =
  | Open of string * (string * string) list      (* <tag attr=...>  *)
  | Self of string * (string * string) list      (* <tag ... />     *)
  | Close of string                              (* </tag>          *)
  | Text of string

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Buffer.contents buf
    else if s.[i] = '&' then begin
      let entity_end =
        match String.index_from_opt s i ';' with
        | Some j when j - i <= 6 -> Some j
        | _ -> None
      in
      match entity_end with
      | None ->
        Buffer.add_char buf '&';
        go (i + 1)
      | Some j ->
        (match String.sub s (i + 1) (j - i - 1) with
         | "amp" -> Buffer.add_char buf '&'
         | "lt" -> Buffer.add_char buf '<'
         | "gt" -> Buffer.add_char buf '>'
         | "quot" -> Buffer.add_char buf '"'
         | "apos" -> Buffer.add_char buf '\''
         | other -> Buffer.add_string buf ("&" ^ other ^ ";"));
        go (j + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Parse the attributes inside a tag body (after the tag name). *)
let parse_attrs body =
  let n = String.length body in
  let rec skip i = if i < n && is_space body.[i] then skip (i + 1) else i in
  let rec go acc i =
    let i = skip i in
    if i >= n then List.rev acc
    else begin
      let name_end = ref i in
      while !name_end < n && body.[!name_end] <> '=' && not (is_space body.[!name_end]) do
        incr name_end
      done;
      let name = String.sub body i (!name_end - i) in
      let i = skip !name_end in
      if i >= n || body.[i] <> '=' then List.rev ((name, "") :: acc)
      else begin
        let i = skip (i + 1) in
        if i >= n || (body.[i] <> '"' && body.[i] <> '\'') then
          raise (Parse_error ("unquoted attribute value for " ^ name));
        let quote = body.[i] in
        match String.index_from_opt body (i + 1) quote with
        | None -> raise (Parse_error ("unterminated attribute value for " ^ name))
        | Some j ->
          let value = unescape (String.sub body (i + 1) (j - i - 1)) in
          go ((name, value) :: acc) (j + 1)
      end
    end
  in
  go [] 0

(* [find_sub s sub from] is the index of the first occurrence of [sub]
   in [s] at or after [from]. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let tokenize source =
  let n = String.length source in
  let tokens = ref [] in
  let rec go i =
    if i >= n then ()
    else if source.[i] = '<' then begin
      if i + 3 < n && String.sub source i 4 = "<!--" then begin
        (* comment *)
        match find_sub source "-->" (i + 4) with
        | None -> raise (Parse_error "unterminated comment")
        | Some j -> go (j + 3)
      end
      else if i + 1 < n && (source.[i + 1] = '?' || source.[i + 1] = '!') then begin
        (* declaration / doctype *)
        match String.index_from_opt source i '>' with
        | None -> raise (Parse_error "unterminated declaration")
        | Some j -> go (j + 1)
      end
      else begin
        match String.index_from_opt source i '>' with
        | None -> raise (Parse_error "unterminated tag")
        | Some j ->
          let inner = String.sub source (i + 1) (j - i - 1) in
          if inner = "" then raise (Parse_error "empty tag");
          if inner.[0] = '/' then
            tokens := Close (String.trim (String.sub inner 1 (String.length inner - 1))) :: !tokens
          else begin
            let self_closing = inner.[String.length inner - 1] = '/' in
            let body =
              if self_closing then String.sub inner 0 (String.length inner - 1) else inner
            in
            let name_end = ref 0 in
            let bn = String.length body in
            while !name_end < bn && not (is_space body.[!name_end]) do
              incr name_end
            done;
            let name = String.sub body 0 !name_end in
            let attrs = parse_attrs (String.sub body !name_end (bn - !name_end)) in
            tokens := (if self_closing then Self (name, attrs) else Open (name, attrs)) :: !tokens
          end;
          go (j + 1)
      end
    end
    else begin
      match String.index_from_opt source i '<' with
      | None ->
        let text = String.trim (String.sub source i (n - i)) in
        if text <> "" then tokens := Text (unescape text) :: !tokens
      | Some j ->
        let text = String.trim (String.sub source i (j - i)) in
        if text <> "" then tokens := Text (unescape text) :: !tokens;
        go j
    end
  in
  go 0;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* GraphML structure                                                    *)
(* ------------------------------------------------------------------ *)

let attr name attrs = List.assoc_opt name attrs

(* A coordinate pair counts only when it is a point on the globe.  A
   non-finite or out-of-range value ("nan", "inf", "1e308") would give a
   NaN link latency, so it is treated as absent, like an unparsable one;
   the comparisons are false for nan. *)
let coords_of lat lon =
  match (float_of_string_opt lat, float_of_string_opt lon) with
  | Some lat, Some lon when Float.abs lat <= 90.0 && Float.abs lon <= 180.0 -> Some (lat, lon)
  | _ -> None

let parse_string source =
  let tokens = tokenize source in
  (* key id -> attribute name, e.g. "d29" -> "Latitude" *)
  let keys = Hashtbl.create 16 in
  let nodes = ref [] and edges = ref [] in
  (* Walk the token stream; inside a <node> or <edge>, collect <data>. *)
  let rec walk = function
    | [] -> ()
    | Open ("key", attrs) :: rest | Self ("key", attrs) :: rest ->
      (match (attr "id" attrs, attr "attr.name" attrs) with
       | Some id, Some name -> Hashtbl.replace keys id name
       | _ -> ());
      walk rest
    | Open ("node", attrs) :: rest ->
      let id =
        match attr "id" attrs with
        | Some id -> id
        | None -> raise (Parse_error "node without id")
      in
      let data, rest = collect_data [] rest in
      let field name = List.assoc_opt name data in
      let coords =
        match (field "Latitude", field "Longitude") with
        | Some lat, Some lon -> coords_of lat lon
        | _ -> None
      in
      let label = Option.value (field "label") ~default:id in
      nodes := { gn_id = id; gn_label = label; gn_coords = coords } :: !nodes;
      walk rest
    | Self ("node", attrs) :: rest ->
      (match attr "id" attrs with
       | Some id -> nodes := { gn_id = id; gn_label = id; gn_coords = None } :: !nodes
       | None -> raise (Parse_error "node without id"));
      walk rest
    | Open ("edge", attrs) :: rest | Self ("edge", attrs) :: rest ->
      (match (attr "source" attrs, attr "target" attrs) with
       | Some s, Some t -> edges := (s, t) :: !edges
       | _ -> raise (Parse_error "edge without endpoints"));
      walk rest
    | (Open _ | Self _ | Close _ | Text _) :: rest -> walk rest
  (* Collect <data key="..">text</data> pairs until </node>. *)
  and collect_data acc = function
    | Open ("data", attrs) :: Text value :: Close "data" :: rest ->
      let name =
        match attr "key" attrs with
        | Some key -> Option.value (Hashtbl.find_opt keys key) ~default:key
        | None -> "?"
      in
      (* GraphML attribute names vary in case; normalize the two we use
         plus the label. *)
      let name =
        match String.lowercase_ascii name with
        | "latitude" -> "Latitude"
        | "longitude" -> "Longitude"
        | "label" -> "label"
        | _ -> name
      in
      collect_data ((name, value) :: acc) rest
    | Open ("data", _) :: Close "data" :: rest -> collect_data acc rest
    | Close "node" :: rest -> (acc, rest)
    | (Open _ | Self _ | Close _ | Text _) :: rest -> collect_data acc rest
    | [] -> (acc, [])
  in
  walk tokens;
  { g_nodes = List.rev !nodes; g_edges = List.rev !edges }

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse_string contents

let to_topology ?(default_latency_ms = 5.0) ?(capacity = 10.0) ~name parsed =
  if parsed.g_nodes = [] then invalid_arg "Graphml.to_topology: empty graph";
  let index = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace index n.gn_id i) parsed.g_nodes;
  let nodes = Array.of_list parsed.g_nodes in
  let graph = Graph.create (Array.length nodes) in
  List.iter
    (fun (src, dst) ->
      match (Hashtbl.find_opt index src, Hashtbl.find_opt index dst) with
      | Some u, Some v when u <> v && not (Graph.has_edge graph u v) ->
        let latency_ms =
          match (nodes.(u).gn_coords, nodes.(v).gn_coords) with
          | Some cu, Some cv -> Float.max 0.1 (Topologies.geo_latency_ms cu cv)
          | _ -> default_latency_ms
        in
        Graph.add_edge graph ~u ~v ~latency_ms ~capacity
      | Some _, Some _ -> () (* self loop or duplicate *)
      | _ -> raise (Parse_error (Printf.sprintf "edge references unknown node %s or %s" src dst)))
    parsed.g_edges;
  if not (Graph.is_connected graph) then
    invalid_arg "Graphml.to_topology: graph is not connected";
  {
    Topologies.name;
    kind = Topologies.Wan;
    graph;
    node_names = Array.map (fun n -> n.gn_label) nodes;
    controller = Graph.centroid graph;
  }
