(* Reference parse-graph interpreter for the parser tests.

   The library compiles a parse graph into indexed states once, at
   [Parser.create].  This oracle interprets the declared states as they
   stand instead: it looks each state up by name in an association list
   on every visit, selects on a field by name and copies the payload out
   with [Bytes.sub].  [Test_p4rt] checks the compiled parser against it
   on random graphs and frames. *)

module Header = P4rt.Header
module Packet = P4rt.Packet
module Parser = P4rt.Parser

let run (states : Parser.state list) bytes =
  let states = List.map (fun s -> (s.Parser.state_name, s)) states in
  let rec step state_name offset headers visits =
    if visits > 64 then raise (Parser.Parse_error "state visit budget exceeded");
    let state =
      match List.assoc_opt state_name states with
      | Some s -> s
      | None -> raise (Parser.Parse_error ("unknown state " ^ state_name))
    in
    let extracted, offset =
      match state.Parser.extracts with
      | None -> (None, offset)
      | Some schema ->
        (try
           let inst, next = Header.extract schema bytes offset in
           (Some inst, next)
         with Invalid_argument msg -> raise (Parser.Parse_error msg))
    in
    let headers = match extracted with None -> headers | Some h -> h :: headers in
    let rec decide = function
      | Parser.Accept -> (None, offset, headers)
      | Parser.Goto s -> (Some s, offset, headers)
      | Parser.Select (field, cases, default) ->
        let inst =
          match extracted with
          | Some h -> h
          | None -> raise (Parser.Parse_error "select without extraction")
        in
        let v = Header.get inst field in
        (match List.assoc_opt v cases with
         | Some target -> (Some target, offset, headers)
         | None -> decide default)
    in
    match decide state.Parser.transition with
    | None, offset, headers -> (offset, headers)
    | Some target, offset, headers -> step target offset headers (visits + 1)
  in
  let offset, headers = step "start" 0 [] 0 in
  let payload = Bytes.sub bytes offset (Bytes.length bytes - offset) in
  Packet.make ~payload (List.rev headers)
