type policy =
  | Shortest_path
  | Waypoint of int
  | Ecmp_spread of int

type flow_intent = {
  fi_name : string;
  fi_src : int;
  fi_dst : int;
  fi_policy : policy;
  fi_priority : int;
  fi_demand : int;
}

type t = {
  flows : flow_intent list;
  drains : (int * int) list;
}

let empty = { flows = []; drains = [] }

let default_priority = 0
let default_demand = 1

let ekey u v = (min u v, max u v)

let name_ok name =
  String.length name > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       name

let policy_to_string = function
  | Shortest_path -> "shortest"
  | Waypoint via -> Printf.sprintf "via %d" via
  | Ecmp_spread k -> Printf.sprintf "ecmp %d" k

let flow_to_string fi =
  Printf.sprintf "flow %s %d -> %d %s prio %d demand %d" fi.fi_name fi.fi_src
    fi.fi_dst (policy_to_string fi.fi_policy) fi.fi_priority fi.fi_demand

(* Canonical form: one statement per line, flows first (in program order),
   then drains; priority and demand always spelled out so that
   [of_string (to_string p)] is the identity. *)
let to_string p =
  let buf = Buffer.create 256 in
  List.iter (fun fi -> Buffer.add_string buf (flow_to_string fi); Buffer.add_char buf '\n') p.flows;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "drain %d - %d\n" u v))
    p.drains;
  Buffer.contents buf

let int_of_token tok =
  match int_of_string_opt tok with
  | Some n when n >= 0 -> Some n
  | _ -> None

(* [flow NAME SRC -> DST policy [prio N] [demand D]] *)
let parse_flow ~line_no toks =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line_no m)) fmt in
  match toks with
  | name :: src :: "->" :: dst :: rest ->
    if not (name_ok name) then fail "bad flow name %S" name
    else begin
      match (int_of_token src, int_of_token dst) with
      | None, _ -> fail "bad source node %S" src
      | _, None -> fail "bad destination node %S" dst
      | Some src, Some dst when src = dst -> fail "flow %s: src = dst" name
      | Some src, Some dst ->
        let policy, rest =
          match rest with
          | "shortest" :: rest -> (Ok Shortest_path, rest)
          | "via" :: via :: rest -> (
              match int_of_token via with
              | Some via when via <> src && via <> dst -> (Ok (Waypoint via), rest)
              | Some _ -> (fail "flow %s: waypoint equals an endpoint" name, rest)
              | None -> (fail "bad waypoint %S" via, rest))
          | "ecmp" :: k :: rest -> (
              match int_of_token k with
              | Some k when k >= 1 && k <= P4update.Wire.flow_space -> (Ok (Ecmp_spread k), rest)
              | _ -> (fail "bad ecmp width %S (1 to %d)" k P4update.Wire.flow_space, rest))
          | tok :: _ -> (fail "unknown policy %S" tok, [])
          | [] -> (fail "flow %s: missing policy" name, [])
        in
        (match policy with
        | Error e -> Error e
        | Ok policy ->
          let rec opts prio demand = function
            | [] -> Ok (prio, demand)
            | "prio" :: n :: rest -> (
                match int_of_token n with
                | Some n -> opts n demand rest
                | None -> fail "bad priority %S" n)
            | "demand" :: d :: rest -> (
                match int_of_token d with
                | Some d when d >= 1 -> opts prio d rest
                | _ -> fail "bad demand %S" d)
            | tok :: _ -> fail "trailing garbage %S" tok
          in
          (match opts default_priority default_demand rest with
          | Error e -> Error e
          | Ok (prio, demand) ->
            Ok
              {
                fi_name = name;
                fi_src = src;
                fi_dst = dst;
                fi_policy = policy;
                fi_priority = prio;
                fi_demand = demand;
              }))
    end
  | _ -> fail "expected: flow NAME SRC -> DST <policy> [prio N] [demand D]"

let parse_drain ~line_no toks =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line_no m)) fmt in
  match toks with
  | [ u; "-"; v ] -> (
      match (int_of_token u, int_of_token v) with
      | Some u, Some v when u <> v -> Ok (ekey u v)
      | Some _, Some _ -> fail "drain: self loop"
      | _ -> fail "drain: bad node ids")
  | _ -> fail "expected: drain U - V"

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go line_no flows drains = function
    | [] -> Ok { flows = List.rev flows; drains = List.rev drains }
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let toks =
        String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
        |> List.filter (fun t -> t <> "")
      in
      (match toks with
      | [] -> go (line_no + 1) flows drains rest
      | "flow" :: toks -> (
          match parse_flow ~line_no toks with
          | Error e -> Error e
          | Ok fi ->
            if List.exists (fun f -> f.fi_name = fi.fi_name) flows then
              Error (Printf.sprintf "line %d: duplicate flow %s" line_no fi.fi_name)
            else go (line_no + 1) (fi :: flows) drains rest)
      | "drain" :: toks -> (
          match parse_drain ~line_no toks with
          | Error e -> Error e
          | Ok d ->
            if List.mem d drains then
              Error (Printf.sprintf "line %d: duplicate drain" line_no)
            else go (line_no + 1) flows (d :: drains) rest)
      | tok :: _ -> Error (Printf.sprintf "line %d: unknown statement %S" line_no tok))
  in
  go 1 [] [] lines

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (In_channel.input_all ic))

let validate p graph =
  let n = Topo.Graph.node_count graph in
  let node_in_range id = id >= 0 && id < n in
  let check_flow fi =
    if not (node_in_range fi.fi_src && node_in_range fi.fi_dst) then
      Error (Printf.sprintf "flow %s: endpoint out of range [0,%d)" fi.fi_name n)
    else
      match fi.fi_policy with
      | Waypoint via when not (node_in_range via) ->
        Error (Printf.sprintf "flow %s: waypoint out of range" fi.fi_name)
      | _ -> Ok ()
  in
  let rec all = function
    | [] -> Ok ()
    | fi :: rest -> ( match check_flow fi with Ok () -> all rest | e -> e)
  in
  match all p.flows with
  | Error _ as e -> e
  | Ok () ->
    let rec drains_ok = function
      | [] -> Ok ()
      | (u, v) :: rest ->
        if not (node_in_range u && node_in_range v) then
          Error (Printf.sprintf "drain %d-%d: node out of range" u v)
        else if not (Topo.Graph.has_edge graph u v) then
          Error (Printf.sprintf "drain %d-%d: no such edge" u v)
        else drains_ok rest
    in
    drains_ok p.drains

let find p name = List.find_opt (fun fi -> fi.fi_name = name) p.flows

let set_flow p fi =
  if List.exists (fun f -> f.fi_name = fi.fi_name) p.flows then
    { p with flows = List.map (fun f -> if f.fi_name = fi.fi_name then fi else f) p.flows }
  else { p with flows = p.flows @ [ fi ] }

let remove_flow p name =
  { p with flows = List.filter (fun f -> f.fi_name <> name) p.flows }
