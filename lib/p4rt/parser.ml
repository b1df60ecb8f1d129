type next =
  | Accept
  | Goto of string
  | Select of string * (int * string) list * next

type state = {
  state_name : string;
  extracts : Header.schema option;
  transition : next;
}

(* The compiled graph: states by index (0 is "start"), select fields by
   index into the state's schema, case targets by state index.  Cases
   keep their declaration order, so the first matching value wins. *)
type cnext =
  | C_accept
  | C_goto of int
  | C_select of {
      field : int;
      values : int array;
      targets : int array;
      default : cnext;
    }

type cstate = {
  c_extracts : Header.schema option;
  c_next : cnext;
}

type t = { states : cstate array }

exception Parse_error of string

let visit_budget = 64

let create states =
  let fail fmt = Printf.ksprintf invalid_arg ("Parser.create: " ^^ fmt) in
  (* Only the first state of a name is reachable, as with a by-name
     lookup; "start" goes first so that it is index 0.  Every state is
     still compiled, so every transition is checked. *)
  let start, rest = List.partition (fun s -> s.state_name = "start") states in
  if start = [] then fail "no start state";
  let ordered = start @ rest in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i s -> if not (Hashtbl.mem index s.state_name) then Hashtbl.add index s.state_name i)
    ordered;
  let target s name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None -> fail "state %s targets unknown state %s" s.state_name name
  in
  let rec compile s = function
    | Accept -> C_accept
    | Goto name -> C_goto (target s name)
    | Select (field, cases, default) ->
      let schema =
        match s.extracts with
        | Some schema -> schema
        | None -> fail "state %s selects on %s but extracts nothing" s.state_name field
      in
      let index =
        match Header.index schema field with
        | i -> i
        | exception Invalid_argument _ ->
          fail "state %s selects on %s, not a field of %s" s.state_name field
            (Header.schema_name schema)
      in
      C_select
        {
          field = index;
          values = Array.of_list (List.map fst cases);
          targets = Array.of_list (List.map (fun (_, name) -> target s name) cases);
          default = compile s default;
        }
  in
  {
    states =
      Array.of_list
        (List.map
           (fun s -> { c_extracts = s.extracts; c_next = compile s s.transition })
           ordered);
  }

let rec case values v i =
  if i = Array.length values then -1 else if values.(i) = v then i else case values v (i + 1)

(* The next state index after a state that extracted [h], or -1 for
   accept. *)
let rec decide h = function
  | C_accept -> -1
  | C_goto i -> i
  | C_select { field; values; targets; default } ->
    let i = case values (Header.get_at h field) 0 in
    if i < 0 then decide h default else targets.(i)

(* Headers are collected on the way back up the recursion, in stack
   order.  They sit back to back from offset 0, so the payload starts at
   the sum of their sizes. *)
let rec step t bytes state offset visits =
  if visits > visit_budget then raise (Parse_error "state visit budget exceeded");
  let s = t.states.(state) in
  match s.c_extracts with
  | None ->
    (match s.c_next with
     | C_accept -> []
     | C_goto i -> step t bytes i offset (visits + 1)
     | C_select _ -> assert false (* rejected by [create] *))
  | Some schema ->
    let next_offset = offset + Header.byte_size schema in
    if next_offset > Bytes.length bytes then
      raise (Parse_error ("truncated " ^ Header.schema_name schema));
    let h = Header.read schema bytes offset in
    let next = decide h s.c_next in
    if next < 0 then [ h ] else h :: step t bytes next next_offset (visits + 1)

let rec size_of acc = function
  | [] -> acc
  | h :: rest -> size_of (acc + Header.byte_size (Header.schema_of h)) rest

let run t bytes =
  let headers = step t bytes 0 0 0 in
  let offset = size_of 0 headers and len = Bytes.length bytes in
  let payload = if offset = len then Bytes.empty else Bytes.sub bytes offset (len - offset) in
  { Packet.headers; payload }
