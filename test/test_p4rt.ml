(* Unit and property tests for the P4 data-plane model. *)

module Header = P4rt.Header
module Packet = P4rt.Packet
module Parser = P4rt.Parser

(* ------------------------------------------------------------------ *)
(* Header serialization                                                 *)
(* ------------------------------------------------------------------ *)

let test_header_byte_alignment_required () =
  Alcotest.check_raises "non aligned"
    (Invalid_argument "Header.define(odd): total width 12 bits not byte aligned")
    (fun () -> ignore (Header.define ~name:"odd" [ ("a", 5); ("b", 7) ]))

let test_header_roundtrip_simple () =
  let schema = Header.define ~name:"h" [ ("a", 4); ("b", 4); ("c", 16) ] in
  let h = Header.make schema in
  let h = Header.set h "a" 0xA in
  let h = Header.set h "b" 0x5 in
  let h = Header.set h "c" 0xBEEF in
  let buf = Bytes.make (Header.byte_size schema) '\000' in
  let next = Header.emit h buf 0 in
  Alcotest.(check int) "3 bytes" 3 next;
  let parsed, _ = Header.extract schema buf 0 in
  Alcotest.(check int) "a" 0xA (Header.get parsed "a");
  Alcotest.(check int) "b" 0x5 (Header.get parsed "b");
  Alcotest.(check int) "c" 0xBEEF (Header.get parsed "c")

let test_header_set_truncates () =
  let schema = Header.define ~name:"t" [ ("x", 8) ] in
  let h = Header.set (Header.make schema) "x" 0x1FF in
  Alcotest.(check int) "truncated to 8 bits" 0xFF (Header.get h "x")

(* A random schema from a width list, with one value per field (full
   int range, so truncation is exercised too). *)
let schema_gen width_gen =
  QCheck.Gen.(
    let* widths = list_size (int_range 1 12) width_gen in
    let* values = list_repeat (List.length widths) int in
    return (widths, values))

let print_schema (widths, values) =
  Printf.sprintf "widths=[%s] values=[%s]"
    (String.concat ";" (List.map string_of_int widths))
    (String.concat ";" (List.map string_of_int values))

(* Header.emit/extract against the bit-by-bit oracle, at a nonzero
   offset in a buffer pre-filled with a pattern.  [of_values] must build
   the same instance as by-name [set]s. *)
let header_matches_oracle (widths, values) =
  let fields = List.mapi (fun i w -> (Printf.sprintf "f%d" i, w)) widths in
  let schema = Header.define ~name:"rand" fields in
  let inst = Codec_oracle.header schema (List.map2 (fun (f, _) v -> (f, v)) fields values) in
  let size = Header.byte_size schema in
  let buf () = Bytes.make (size + 2) '\xa5' in
  let lib = buf () and oracle = buf () and positional = buf () in
  let next = Header.emit inst lib 1 in
  let next_oracle = Codec_oracle.emit inst oracle 1 in
  ignore (Header.emit (Header.of_values schema (Array.of_list values)) positional 1);
  let parsed, after = Header.extract schema oracle 1 in
  let parsed_oracle, _ = Codec_oracle.extract schema lib 1 in
  next = next_oracle && after = next
  && Bytes.equal lib oracle && Bytes.equal lib positional
  && List.for_all
       (fun (f, _) ->
         let i = Header.index schema f in
         Header.get parsed f = Header.get inst f
         && Header.get_at parsed i = Header.get parsed_oracle f)
       fields

let prop_header_byte_loop =
  QCheck.Test.make ~name:"header byte loop = bit loop on aligned schemas" ~count:300
    (QCheck.make ~print:print_schema (schema_gen QCheck.Gen.(map (fun k -> 8 * k) (int_range 1 7))))
    header_matches_oracle

let prop_header_bit_loop =
  (* Sub-byte widths, padded to a whole byte with a final field. *)
  let gen =
    QCheck.Gen.(
      let* widths, values = schema_gen (int_range 1 20) in
      let total = List.fold_left ( + ) 0 widths in
      let pad = 8 - (total mod 8) in
      let* last = int in
      return (widths @ [ pad ], values @ [ last ]))
  in
  QCheck.Test.make ~name:"header bit loop = oracle on sub-byte schemas" ~count:300
    (QCheck.make ~print:print_schema gen) header_matches_oracle

let prop_control_roundtrip =
  let gen =
    QCheck.Gen.(
      let* kind = oneofl [ P4update.Wire.Frm; Uim; Unm; Ufm; Cln ] in
      let* update_type = oneofl [ P4update.Wire.Sl; Dl ] in
      let* flow_id = int_bound 65535 in
      let* version_new = int_bound 65535 in
      let* version_old = int_bound 65535 in
      let* dist_new = int_bound 65535 in
      let* dist_old = int_bound 65535 in
      let* layer = int_bound 255 in
      let* counter = int_bound 65535 in
      let* flow_size = int_bound 65535 in
      let* egress_port = int_bound 255 in
      let* notify_port = int_bound 255 in
      let* role = int_bound 255 in
      let* src_node = int_bound 65535 in
      return
        {
          P4update.Wire.kind; flow_id; version_new; version_old; dist_new; dist_old;
          update_type; layer; counter; flow_size; egress_port; notify_port; role; src_node;
        })
  in
  QCheck.Test.make ~name:"control message parse . serialize = id" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" P4update.Wire.pp_control) gen)
    (fun c ->
      let bytes = P4update.Wire.control_to_bytes c in
      match Option.bind (P4update.Wire.packet_of_bytes bytes) P4update.Wire.control_of_packet with
      | Some c' -> c = c'
      | None -> false)

let prop_data_roundtrip =
  QCheck.Test.make ~name:"data packet parse . serialize = id" ~count:300
    QCheck.(quad (int_bound 65535) (int_bound 0xFFFF) (int_bound 255) (int_bound 255))
    (fun (flow, seq, ttl, origin) ->
      let d = { P4update.Wire.d_flow_id = flow; seq; ttl; origin; dst = origin; tag = 0; d_ts = 0 } in
      match
        Option.bind
          (P4update.Wire.packet_of_bytes (P4update.Wire.data_to_bytes d))
          P4update.Wire.data_of_packet
      with
      | Some d' -> d = d'
      | None -> false)

let test_parser_rejects_truncated () =
  let bytes = P4update.Wire.control_to_bytes (P4update.Wire.control_default P4update.Wire.Uim) in
  let truncated = Bytes.sub bytes 0 (Bytes.length bytes - 3) in
  Alcotest.(check bool) "truncated rejected" true
    (P4update.Wire.packet_of_bytes truncated = None)

(* ------------------------------------------------------------------ *)
(* Compiled parse graph                                                 *)
(* ------------------------------------------------------------------ *)

let sel_schema = Header.define ~name:"sel" [ ("kind", 8); ("len", 8) ]

let test_parser_rejects_unknown_select_field () =
  match
    Parser.create
      [
        {
          Parser.state_name = "start";
          extracts = Some sel_schema;
          transition = Select ("nope", [ (1, "start") ], Accept);
        };
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "select on a field the schema lacks was accepted"

let test_parser_rejects_select_without_extract () =
  match
    Parser.create
      [
        { Parser.state_name = "start"; extracts = None; transition = Goto "sel" };
        {
          Parser.state_name = "sel";
          extracts = None;
          transition = Select ("kind", [ (1, "start") ], Accept);
        };
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "select in a state that extracts nothing was accepted"

let test_parser_whole_frame_payload () =
  let bytes =
    P4update.Wire.data_to_bytes
      { P4update.Wire.d_flow_id = 3; seq = 9; ttl = 8; origin = 1; dst = 2; tag = 0; d_ts = 0 }
  in
  let pkt = Parser.run P4update.Wire.parser bytes in
  Alcotest.(check bool) "headers consume the frame: shared empty payload" true
    (pkt.Packet.payload == Bytes.empty);
  let longer = Bytes.cat bytes (Bytes.of_string "xy") in
  Alcotest.(check string) "trailing bytes become the payload" "xy"
    (Bytes.to_string (Parser.run P4update.Wire.parser longer).Packet.payload)

(* A loop through a state that extracts nothing: frame [0^n 1] visits
   2n + 1 states, so the 64-visit budget admits n = 32 and cuts n = 33,
   in the oracle and [run] alike. *)
let test_parser_visit_budget () =
  let b = Header.define ~name:"b" [ ("v", 8) ] in
  let states =
    [
      {
        Parser.state_name = "start";
        extracts = Some b;
        transition = Select ("v", [ (0, "hop") ], Accept);
      };
      { Parser.state_name = "hop"; extracts = None; transition = Goto "start" };
    ]
  in
  let compiled = Parser.create states in
  let parses run n =
    let frame = Bytes.cat (Bytes.make n '\000') (Bytes.make 1 '\001') in
    match run frame with _ -> true | exception Parser.Parse_error _ -> false
  in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check bool) (Printf.sprintf "oracle, %d loops" n) expected
        (parses (Parser_oracle.run states) n);
      Alcotest.(check bool) (Printf.sprintf "compiled, %d loops" n) expected
        (parses (Parser.run compiled) n))
    [ (31, true); (32, true); (33, false) ];
  (* A self-loop that extracts on every visit: frame [0^n 1] visits n + 1
     states, so the budget admits n = 64 and cuts n = 65. *)
  let self_loop =
    [
      {
        Parser.state_name = "start";
        extracts = Some b;
        transition = Select ("v", [ (0, "start") ], Accept);
      };
    ]
  in
  let compiled = Parser.create self_loop in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check bool) (Printf.sprintf "oracle, %d self-loops" n) expected
        (parses (Parser_oracle.run self_loop) n);
      Alcotest.(check bool) (Printf.sprintf "compiled, %d self-loops" n) expected
        (parses (Parser.run compiled) n))
    [ (64, true); (65, false) ]

(* Random parse graphs: a few states over a pool of small schemas, with
   [Goto] cycles, selects (cases may repeat a value), nested select
   defaults and states that extract nothing.  Select values and frame
   bytes come from a small alphabet so that cases actually match. *)
type graph_case = {
  g_schemas : (string * int) list list; (* field lists; schema i is "h<i>" *)
  g_states : (string * int option * Parser.next) list; (* name, schema index, transition *)
  g_bytes : string;
}

(* A field list of widths drawn from [width], padded to a whole byte. *)
let field_list_gen width =
  let open QCheck.Gen in
  let* widths = list_size (int_range 1 3) width in
  let total = List.fold_left ( + ) 0 widths in
  let widths = if total mod 8 = 0 then widths else widths @ [ 8 - (total mod 8) ] in
  return (List.mapi (fun i w -> (Printf.sprintf "f%d" i, w)) widths)

let graph_gen =
  let open QCheck.Gen in
  let field_list = field_list_gen (oneofl [ 4; 8; 8; 16 ]) in
  let* g_schemas = list_size (int_range 1 3) field_list in
  let* n = int_range 1 4 in
  let names = List.init n (fun i -> if i = 0 then "start" else Printf.sprintf "s%d" i) in
  let target = oneofl names in
  let rec next fields depth =
    let leaf = oneof [ return Parser.Accept; map (fun s -> Parser.Goto s) target ] in
    match fields with
    | [] -> leaf
    | _ when depth = 0 -> leaf
    | _ ->
      frequency
        [
          (1, leaf);
          ( 3,
            let* field, _ = oneofl fields in
            let* cases = list_size (int_range 0 3) (pair (int_range 0 3) target) in
            let* default = next fields (depth - 1) in
            return (Parser.Select (field, cases, default)) );
        ]
  in
  let* g_states =
    flatten_l
      (List.map
         (fun name ->
           let* schema =
             frequency
               [ (1, return None); (3, map Option.some (int_bound (List.length g_schemas - 1))) ]
           in
           let fields = match schema with None -> [] | Some i -> List.nth g_schemas i in
           let* transition = next fields 2 in
           return (name, schema, transition))
         names)
  in
  let* g_bytes =
    string_size ~gen:(frequency [ (4, char_range '\000' '\003'); (1, char) ]) (int_range 0 24)
  in
  return { g_schemas; g_states; g_bytes }

let rec print_next = function
  | Parser.Accept -> "accept"
  | Parser.Goto s -> "goto " ^ s
  | Parser.Select (f, cases, d) ->
    Printf.sprintf "select %s [%s] else (%s)" f
      (String.concat "; " (List.map (fun (v, s) -> Printf.sprintf "%d->%s" v s) cases))
      (print_next d)

let print_graph g =
  Printf.sprintf "schemas: %s\nstates: %s\nbytes: %S"
    (String.concat " | "
       (List.mapi
          (fun i fl ->
            Printf.sprintf "h%d{%s}" i
              (String.concat ";" (List.map (fun (f, w) -> Printf.sprintf "%s:%d" f w) fl)))
          g.g_schemas))
    (String.concat " | "
       (List.map
          (fun (name, schema, next) ->
            Printf.sprintf "%s: extract %s, %s" name
              (match schema with None -> "-" | Some i -> Printf.sprintf "h%d" i)
              (print_next next))
          g.g_states))
    g.g_bytes

let graph_states g =
  let schemas =
    List.mapi (fun i fl -> Header.define ~name:(Printf.sprintf "h%d" i) fl) g.g_schemas
  in
  let states =
    List.map
      (fun (state_name, schema, transition) ->
        { Parser.state_name; extracts = Option.map (List.nth schemas) schema; transition })
      g.g_states
  in
  (schemas, states)

let parser_matches_oracle g =
  let _, states = graph_states g in
  let compiled = Parser.create states in
  let bytes = Bytes.of_string g.g_bytes in
  let attempt run frame =
    match run frame with pkt -> Some pkt | exception Parser.Parse_error _ -> None
  in
  (* Every prefix, so truncation is exercised on every graph. *)
  List.for_all
    (fun len ->
      let frame = Bytes.sub bytes 0 len in
      attempt (Parser.run compiled) frame = attempt (Parser_oracle.run states) frame)
    (List.init (Bytes.length bytes + 1) Fun.id)

let prop_parser_oracle =
  QCheck.Test.make ~name:"compiled parser = assoc-list oracle" ~count:500
    (QCheck.make ~print:print_graph graph_gen)
    parser_matches_oracle

(* ------------------------------------------------------------------ *)
(* Registers                                                            *)
(* ------------------------------------------------------------------ *)

let test_register_read_write () =
  let r = Register.create ~name:"r" ~width:16 ~size:8 in
  Register.write r 3 70000;
  Alcotest.(check int) "truncated to 16 bits" (70000 land 0xFFFF) (Register.read r 3);
  Alcotest.(check int) "others zero" 0 (Register.read r 4);
  Register.clear r;
  Alcotest.(check int) "cleared" 0 (Register.read r 3)

let test_register_bounds () =
  let r = Register.create ~name:"r" ~width:8 ~size:4 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Register.read(r): index 4 outside [0, 4)")
    (fun () -> ignore (Register.read r 4))

(* ------------------------------------------------------------------ *)
(* The switch's frame path                                              *)
(* ------------------------------------------------------------------ *)

module Wire = P4update.Wire

let forwarding_world () =
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  (w, flow.P4update.Controller.flow_id)

let data_frame ?(ttl = 64) flow_id =
  Wire.data_to_bytes
    { Wire.d_flow_id = flow_id; seq = 1; ttl; origin = 0; dst = 7; tag = 0; d_ts = 0 }

(* The first switch after the flow's ingress, its ingress port from the
   ingress and its egress port toward the next hop. *)
let mid_hop (w : Harness.World.t) =
  match Topo.Topologies.fig1_old_path with
  | prev :: hop :: next :: _ ->
    ( w.Harness.World.switches.(hop),
      Netsim.port_of_neighbor w.net ~node:hop ~neighbor:prev,
      Netsim.port_of_neighbor w.net ~node:hop ~neighbor:next )
  | _ -> assert false

(* What [sw] emits on its data ports for [bytes] arriving at [port]. *)
let emitted (w : Harness.World.t) sw ~port bytes =
  fst
    (Switch_oracle.capture w.net ~node:(P4update.Switch.node sw) (fun () ->
         P4update.Switch.receive sw ~port bytes))

(* What a forward must emit: [frame] with ttl decremented, every other
   byte (trailing payload included) unchanged. *)
let decremented frame =
  let b = Bytes.copy frame in
  Bytes.set_uint8 b 12 (Bytes.get_uint8 b 12 - 1);
  b

let test_forward_keeps_payload () =
  let w, flow_id = forwarding_world () in
  let sw, in_port, out_port = mid_hop w in
  let frame = Bytes.cat (data_frame flow_id) (Bytes.of_string "payload\000\255!") in
  let original = Bytes.copy frame in
  (match emitted w sw ~port:in_port frame with
   | [ e ] ->
     Alcotest.(check int) "toward the next hop" out_port e.Switch_oracle.out_port;
     Alcotest.(check string) "ttl - 1, payload byte for byte"
       (Bytes.to_string (decremented original)) (Bytes.to_string e.Switch_oracle.bytes)
   | _ -> Alcotest.fail "expected one emission");
  Alcotest.(check string) "the received buffer is untouched" (Bytes.to_string original)
    (Bytes.to_string frame)

let test_ttl_expiry () =
  let w, flow_id = forwarding_world () in
  let sw, in_port, _ = mid_hop w in
  let stats = P4update.Switch.stats sw in
  List.iter
    (fun ttl ->
      let before = stats.P4update.Switch.dropped_ttl in
      Alcotest.(check int) (Printf.sprintf "ttl %d emits nothing" ttl) 0
        (List.length (emitted w sw ~port:in_port (data_frame ~ttl flow_id)));
      Alcotest.(check int) (Printf.sprintf "ttl %d counted" ttl) (before + 1)
        stats.P4update.Switch.dropped_ttl)
    [ 1; 0 ]

let test_flow_id_masked () =
  let w, flow_id = forwarding_world () in
  let sw, in_port, out_port = mid_hop w in
  let frame = data_frame (flow_id + Wire.flow_space) in
  match emitted w sw ~port:in_port frame with
  | [ e ] ->
    Alcotest.(check int) "the masked slot's rule" out_port e.Switch_oracle.out_port;
    Alcotest.(check string) "the header keeps the id it arrived with"
      (Bytes.to_string (decremented frame)) (Bytes.to_string e.Switch_oracle.bytes)
  | _ -> Alcotest.fail "expected one emission"

(* The parse errors [sw] counted. *)
let parse_errors sw = (P4update.Switch.stats sw).P4update.Switch.parse_errors

let test_malformed_frames_dropped () =
  let w, flow_id = forwarding_world () in
  let sw, in_port, _ = mid_hop w in
  let frame = data_frame flow_id in
  List.iter
    (fun len ->
      let before = parse_errors sw in
      Alcotest.(check int) (Printf.sprintf "%d-byte prefix emits nothing" len) 0
        (List.length (emitted w sw ~port:in_port (Bytes.sub frame 0 len)));
      Alcotest.(check int) (Printf.sprintf "%d-byte prefix is a parse error" len) (before + 1)
        (parse_errors sw))
    [ 0; 3; 6; 21 ];
  (* A foreign etype parses (the parse graph accepts after the base
     header) and is dropped, counted nowhere. *)
  let foreign = Bytes.copy frame in
  Bytes.set_uint16_be foreign 4 0x86DD;
  let before = parse_errors sw and stats = P4update.Switch.stats sw in
  let forwarded = stats.P4update.Switch.forwarded in
  Alcotest.(check int) "foreign etype emits nothing" 0
    (List.length (emitted w sw ~port:in_port foreign));
  Alcotest.(check int) "foreign etype is no parse error" before (parse_errors sw);
  Alcotest.(check int) "nor a forward" forwarded stats.P4update.Switch.forwarded

(* Through the network: the bytes handed to [Netsim.transmit] reach the
   switch, which forwards a copy; the buffer itself never changes. *)
let test_delivered_buffer_unchanged () =
  let w, flow_id = forwarding_world () in
  let hop = List.nth Topo.Topologies.fig1_old_path 1 in
  let frame = data_frame flow_id in
  let original = Bytes.copy frame in
  let seen = ref [] in
  Netsim.on_delivery w.net (fun _ node _ bytes -> seen := (node, Bytes.copy bytes) :: !seen);
  Netsim.transmit w.net ~from:0 ~port:(Netsim.port_of_neighbor w.net ~node:0 ~neighbor:hop)
    frame;
  ignore (Harness.World.run w);
  Alcotest.(check string) "sender's buffer untouched" (Bytes.to_string original)
    (Bytes.to_string frame);
  let next = List.nth Topo.Topologies.fig1_old_path 2 in
  match List.assoc_opt next !seen with
  | Some b ->
    Alcotest.(check string) "next hop sees ttl - 1" (Bytes.to_string (decremented original))
      (Bytes.to_string b)
  | None -> Alcotest.fail "the frame never reached the next hop"

(* ------------------------------------------------------------------ *)
(* Differential oracle: the switch against its parse-graph program      *)
(* ------------------------------------------------------------------ *)

(* Fig. 1's node 2 (four ports); its frames address the register slots
   of flows 0-3, under ids that alias them through the mask. *)
let oracle_node = 2
let oracle_ports = 4
let oracle_flows = 4

(* One flow's registers: the committed rule (version, distances, ports,
   size, type, counter), the tagged bank (port, version), the tag the
   ingress stamps, and the chain, cleanup and UFM flags.  Staged
   indications and withdraw floors come from the case's own frames. *)
type slot = {
  s_ver : int;
  s_egress : int;
  s_tagged_port : int;
  s_tagged_ver : int;
  s_stamp : int;
  s_dist : int;
  s_ver_prev : int;
  s_dist_prev : int;
  s_notify : int;
  s_size : int;
  s_dual : bool;
  s_counter : int;
  s_chain : bool;
  s_cleaned : bool;
  s_ufm_sent : int;
}

(* The switch's opt-in extensions and guards, set alike on both sides. *)
type guards = {
  g_watchdog : bool;
  g_consecutive : bool;
  g_label : bool;
  g_gateway : bool;
  g_priority : bool;
}

type oracle_case = {
  slots : slot array;
  guards : guards;
  frames : (int * Bytes.t) list; (* ingress, frame *)
}

let hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let print_oracle_case c =
  let slot s =
    Printf.sprintf
      "{ver=%d egress=%d tagged=%d@%d stamp=%d dist=%d prev=%d/%d notify=%d size=%d dual=%b \
       counter=%d chain=%b cleaned=%b ufm=%d}"
      s.s_ver s.s_egress s.s_tagged_port s.s_tagged_ver s.s_stamp s.s_dist s.s_ver_prev
      s.s_dist_prev s.s_notify s.s_size s.s_dual s.s_counter s.s_chain s.s_cleaned s.s_ufm_sent
  in
  let g = c.guards in
  let frame (port, b) = Printf.sprintf "%d<-%s" port (hex b) in
  String.concat " " (Array.to_list (Array.map slot c.slots))
  ^ Printf.sprintf "\nwatchdog=%b consecutive=%b label=%b gateway=%b priority=%b\n" g.g_watchdog
      g.g_consecutive g.g_label g.g_gateway g.g_priority
  ^ String.concat "\n" (List.map frame c.frames)

let oracle_case_gen =
  let open QCheck.Gen in
  (* a rule's port: no rule, local delivery, a data port, or a port the
     node does not have *)
  let port =
    frequency
      [
        (3, int_bound (oracle_ports - 1));
        (2, oneofl [ Wire.port_none; Wire.port_local; oracle_ports; 99 ]);
      ]
  in
  let small = int_bound 4 in
  let size = frequency [ (4, int_bound 300); (1, int_bound 0xFFFF) ] in
  let slot =
    let* s_ver = frequency [ (3, int_range 1 3); (1, return 0) ] in
    let* s_egress = port in
    let* s_tagged_port = port in
    let* s_tagged_ver = int_bound 2 in
    let* s_stamp = int_bound 2 in
    let* s_dist = small in
    let* s_ver_prev = small in
    let* s_dist_prev = small in
    let* s_notify = port in
    let* s_size = size in
    let* s_dual = bool in
    let* s_counter = int_bound 3 in
    let* s_chain = bool in
    let* s_cleaned = frequency [ (3, return false); (1, return true) ] in
    let* s_ufm_sent = small in
    return
      {
        s_ver; s_egress; s_tagged_port; s_tagged_ver; s_stamp; s_dist; s_ver_prev;
        s_dist_prev; s_notify; s_size; s_dual; s_counter; s_chain; s_cleaned; s_ufm_sent;
      }
  in
  let guards =
    let* g_watchdog = frequency [ (3, return false); (1, return true) ] in
    let* g_consecutive = bool in
    let* g_label = frequency [ (3, return true); (1, return false) ] in
    let* g_gateway = frequency [ (3, return true); (1, return false) ] in
    let* g_priority = frequency [ (3, return true); (1, return false) ] in
    return { g_watchdog; g_consecutive; g_label; g_gateway; g_priority }
  in
  let ingress =
    frequency
      [ (2, return Netsim.port_host); (2, int_bound (oracle_ports - 1)); (1, return (-1)) ]
  in
  let flip b =
    let* i = int_bound (Bytes.length b - 1) in
    let* bit = int_bound 7 in
    let b = Bytes.copy b in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit));
    return b
  in
  let trailing b = map (fun p -> Bytes.cat b (Bytes.of_string p)) (string_size (int_range 1 40)) in
  (* a control frame a handler runs on, over the registers of [flow] *)
  let control d_flow_id =
    let* kind =
      frequency
        [ (3, return Wire.Uim); (3, return Wire.Unm); (1, return Wire.Cln); (1, return Wire.Wdm) ]
    in
    let* version_new = small in
    let* version_old = small in
    let* dist_new = small in
    let* dist_old = small in
    let* dual = bool in
    let* layer = int_bound 2 in
    let* counter = int_bound 3 in
    let* flow_size = size in
    let* egress_port = port in
    let* notify_port = port in
    let* role = int_bound 63 in
    let* src_node = int_bound 7 in
    return
      (Wire.control_to_bytes
         {
           Wire.kind;
           flow_id = d_flow_id;
           version_new;
           version_old;
           dist_new;
           dist_old;
           update_type = (if dual then Wire.Dl else Wire.Sl);
           layer;
           counter;
           flow_size;
           egress_port;
           notify_port;
           role;
           src_node;
         })
  in
  let frame =
    let* flow = int_bound (oracle_flows - 1) in
    let* alias = frequency [ (3, return 0); (1, int_range 1 63) ] in
    let* ttl = oneofl [ 0; 1; 2; 64; 255 ] in
    let* tag = frequency [ (3, int_bound 3); (1, int_bound 0xFFFF) ] in
    let* dst = int_bound 0xFFFF in
    let* seq = int_bound 0xFFFFFF in
    let d_flow_id = flow + (alias * Wire.flow_space) in
    let valid =
      Wire.data_to_bytes
        { Wire.d_flow_id; seq; ttl; origin = seq land 0xFF; dst; tag; d_ts = seq }
    in
    let relabel b etype =
      let b = Bytes.copy b in
      Bytes.set_uint16_be b 4 etype;
      b
    in
    frequency
      [
        (4, return valid);
        (1, map (fun len -> Bytes.sub valid 0 len) (int_bound 21));
        (2, trailing valid);
        (1, map (relabel valid) (oneofl [ 0; 0x0801; 0x0806; 0x86DD; 0xFFFF ]));
        (2, flip valid);
        (* control frames: UIM, UNM, CLN and WDM, also with a trailing
           payload or a flipped bit *)
        (6, control d_flow_id);
        (1, control d_flow_id >>= trailing);
        (2, control d_flow_id >>= flip);
        (* control-typed frames the switch drops without a handler *)
        ( 1,
          let* kind = oneofl [ Wire.Frm; Wire.Ufm ] in
          return
            (Wire.control_to_bytes
               {
                 (Wire.control_default kind) with
                 flow_id = d_flow_id;
                 version_new = seq land 0xFFFF;
               }) );
        ( 1,
          (* an invalid msg_type or update_type: undecodable *)
          let* offset, bad = oneofl [ (6, 0); (6, 7); (6, 0xFF); (17, 0); (17, 3) ] in
          let b =
            Wire.control_to_bytes { (Wire.control_default Wire.Unm) with flow_id = d_flow_id }
          in
          Bytes.set_uint8 b offset bad;
          return b );
        (* a control etype too short for a control header *)
        (1, map (fun len -> Bytes.sub (relabel valid Wire.etype_control) 0 len) (int_range 6 22));
      ]
  in
  let* slots = array_repeat oracle_flows slot in
  let* guards = guards in
  let* frames = list_size (int_range 1 24) (pair ingress frame) in
  return { slots; guards; frames }

let load_slots u slots =
  let module U = P4update.Uib in
  Array.iteri
    (fun flow s ->
      U.set_ver_cur u flow s.s_ver;
      U.set_egress_port u flow s.s_egress;
      U.set_tagged_port u flow s.s_tagged_port;
      U.set_tagged_version u flow s.s_tagged_ver;
      U.set_stamp_tag u flow s.s_stamp;
      U.set_dist_cur u flow s.s_dist;
      U.set_ver_prev u flow s.s_ver_prev;
      U.set_dist_prev u flow s.s_dist_prev;
      U.set_notify_port u flow s.s_notify;
      U.set_flow_size u flow s.s_size;
      U.set_last_type u flow (Wire.update_type_to_int (if s.s_dual then Wire.Dl else Wire.Sl));
      U.set_counter u flow s.s_counter;
      U.set_chain_ok u flow (Bool.to_int s.s_chain);
      U.set_cleaned u flow (Bool.to_int s.s_cleaned);
      U.set_ufm_sent u flow s.s_ufm_sent)
    slots

let oracle_watchdog_ms = 5.0

(* A fig1 network whose node [oracle_node] records the frames that reach
   its device after [device] attached it: its resubmissions, as nothing
   else of the network sends to it. *)
let oracle_net device =
  let net = Netsim.create (Dessim.Sim.create ()) (Topo.Topologies.fig1 ()) in
  let d = device net in
  let resubmitted = ref [] in
  Netsim.attach net ~node:oracle_node (fun ~port:_ b ->
      resubmitted := Bytes.copy b :: !resubmitted);
  (net, d, resubmitted)

(* A resubmitted frame as its handler reads it: the decoded record, its
   flow id masked to the register index.  The switch resubmits the frame
   it received, the reference its re-encoded record; they differ only in
   an id's bits above the mask and in trailing bytes, neither of which a
   handler reads. *)
let as_handled b =
  Option.map
    (fun (c : Wire.control) -> { c with flow_id = c.flow_id land (Wire.flow_space - 1) })
    (Wire.control_of_bytes b)

(* What [f] makes node [oracle_node] of [net] do, [f] and every event it
   schedules included: emissions, digests and resubmissions, and the
   exception that stopped it, if one did.  Registers no handler could
   have written (a committed port the node lacks) make both programs
   raise alike. *)
let observe net resubmitted f =
  resubmitted := [];
  let raised = ref None in
  let emissions, digests =
    Switch_oracle.capture net ~node:oracle_node (fun () ->
        try
          f ();
          ignore (Dessim.Sim.run (Netsim.sim net))
        with Invalid_argument msg -> raised := Some msg)
  in
  (emissions, digests, List.rev !resubmitted, !raised)

(* Run [c] through [Switch.receive] and through the reference program
   [Switch_oracle.receive], each on its own network from the same
   registers, running every event a frame schedules (commits, watchdogs,
   resubmissions) before the next.  After every frame the two must agree
   on what they emit (ports and bytes), the digests they punt, what they
   resubmit, what they deliver locally, their counters, their state
   fingerprint ([Uib.fingerprint] and the staged commits), the clock, and
   whether the frame is a parse error; neither may write the received
   buffer. *)
let run_oracle_case c =
  let module S = P4update.Switch in
  let net, sw, sw_resubmitted = oracle_net (fun net -> S.create net ~node:oracle_node) in
  let rnet, r, ref_resubmitted =
    oracle_net (fun net -> Switch_oracle.create net ~node:oracle_node)
  in
  let g = c.guards in
  if g.g_watchdog then begin
    S.enable_watchdog sw ~timeout_ms:oracle_watchdog_ms;
    r.Switch_oracle.watchdog_ms <- Some oracle_watchdog_ms
  end;
  if g.g_consecutive then begin
    S.enable_consecutive_dl sw;
    r.consecutive_dl <- true
  end;
  if not g.g_label then S.disable_guard sw S.Inside_segment_label;
  if not g.g_gateway then S.disable_guard sw S.Gateway_rule;
  if not g.g_priority then S.disable_guard sw S.Priority_gate;
  r.label_guard <- g.g_label;
  r.gateway_guard <- g.g_gateway;
  r.priority_gate <- g.g_priority;
  load_slots (S.uib sw) c.slots;
  load_slots r.uib c.slots;
  let sw_delivered = ref [] and ref_delivered = ref [] in
  S.on_deliver sw (fun ~time d -> sw_delivered := (time, d) :: !sw_delivered);
  Switch_oracle.on_deliver r (fun ~time d -> ref_delivered := (time, d) :: !ref_delivered);
  List.for_all
    (fun (port, frame) ->
      let original = Bytes.copy frame in
      let errors = parse_errors sw in
      let emissions, digests, resubmitted, raised =
        observe net sw_resubmitted (fun () -> S.receive sw ~port frame)
      in
      let counted = parse_errors sw - errors in
      let expected = ref Switch_oracle.dropped in
      let ref_emissions, ref_digests, ref_resubmitted, ref_raised =
        observe rnet ref_resubmitted (fun () ->
            expected := Switch_oracle.receive r ~in_port:port frame)
      in
      raised = ref_raised
      && emissions = ref_emissions
      && List.equal Bytes.equal digests ref_digests
      && List.map as_handled resubmitted = List.map as_handled ref_resubmitted
      && !sw_delivered = !ref_delivered
      && S.stats sw = r.stats
      && S.fingerprint sw = Switch_oracle.fingerprint r
      && Dessim.Sim.now (Netsim.sim net) = Dessim.Sim.now (Netsim.sim rnet)
      && counted = Bool.to_int !expected.Switch_oracle.parse_error
      && Bytes.equal frame original)
    c.frames

let prop_switch_oracle =
  QCheck.Test.make ~name:"Switch.receive = the program in Parser.run terms" ~count:300
    (QCheck.make ~print:print_oracle_case oracle_case_gen)
    run_oracle_case

(* The property checks only what its inputs reach.  On a fixed sample,
   every verdict of the frame path must occur. *)
let test_switch_oracle_reach () =
  let rand = Random.State.make [| 24 |] in
  let total = Switch_oracle.no_stats () and parse = ref 0 and digests = ref 0 in
  let resubmissions = ref 0 and emissions = ref 0 in
  List.iter
    (fun c ->
      let net, r, _ = oracle_net (fun net -> Switch_oracle.create net ~node:oracle_node) in
      load_slots r.Switch_oracle.uib c.slots;
      List.iter
        (fun (port, frame) ->
          let sent, _, _, _ =
            observe net (ref []) (fun () ->
                let o = Switch_oracle.receive r ~in_port:port frame in
                if o.Switch_oracle.parse_error then incr parse;
                if o.Switch_oracle.digest <> None then incr digests)
          in
          emissions := !emissions + List.length sent)
        c.frames;
      resubmissions := !resubmissions + (Netsim.counters net).Netsim.resubmissions;
      let s = r.Switch_oracle.stats in
      total.forwarded <- total.forwarded + s.forwarded;
      total.delivered <- total.delivered + s.delivered;
      total.dropped_ttl <- total.dropped_ttl + s.dropped_ttl;
      total.dropped_no_rule <- total.dropped_no_rule + s.dropped_no_rule;
      total.commits <- total.commits + s.commits;
      total.waits <- total.waits + s.waits;
      total.alarms <- total.alarms + s.alarms;
      total.withdrawals <- total.withdrawals + s.withdrawals;
      total.congestion_defers <- total.congestion_defers + s.congestion_defers)
    (QCheck.Gen.generate ~rand ~n:100 oracle_case_gen);
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " reached") true (n > 0))
    [
      ("forward", total.forwarded); ("local delivery", total.delivered);
      ("ttl expiry", total.dropped_ttl); ("blackhole", total.dropped_no_rule);
      ("digest", !digests); ("parse error", !parse); ("commit", total.commits);
      ("wait", total.waits); ("alarm", total.alarms); ("withdraw", total.withdrawals);
      ("congestion defer", total.congestion_defers); ("resubmission", !resubmissions);
      ("emission", !emissions);
    ]

(* The codec the control path rests on.  On any frame, each in-place
   reader equals the field of [Wire.control_of_bytes], and the kind reader
   is [None] exactly when the decoder is, which agrees with the parse
   graph ([Codec_oracle]); [Wire.control_frame] of a
   record's fields is [Wire.control_to_bytes] of the record and the
   frame the parse-graph serializer ([Codec_oracle]) writes for it. *)
let control_frame_of (c : Wire.control) =
  Wire.control_frame ~kind:c.kind ~flow_id:c.flow_id ~version_new:c.version_new
    ~version_old:c.version_old ~dist_new:c.dist_new ~dist_old:c.dist_old
    ~update_type:c.update_type ~layer:c.layer ~counter:c.counter ~flow_size:c.flow_size
    ~egress_port:c.egress_port ~notify_port:c.notify_port ~role:c.role ~src_node:c.src_node

let control_record_gen =
  let open QCheck.Gen in
  let field = frequency [ (3, int_bound 0xFFFF); (1, int_bound 0x3_FFFF) ] in
  let* kind = oneofl Wire.[ Frm; Uim; Unm; Ufm; Cln; Wdm ] in
  let* dual = bool in
  let* f = array_repeat 12 field in
  return
    {
      Wire.kind;
      flow_id = f.(0);
      version_new = f.(1);
      version_old = f.(2);
      dist_new = f.(3);
      dist_old = f.(4);
      update_type = (if dual then Wire.Dl else Wire.Sl);
      layer = f.(5);
      counter = f.(6);
      flow_size = f.(7);
      egress_port = f.(8);
      notify_port = f.(9);
      role = f.(10);
      src_node = f.(11);
    }

let control_bytes_gen =
  let open QCheck.Gen in
  let* c = control_record_gen in
  let b = Wire.control_to_bytes c in
  frequency
    [
      (3, return b);
      (1, map (fun len -> Bytes.sub b 0 len) (int_bound 27));
      (1, map (fun p -> Bytes.cat b (Bytes.of_string p)) (string_size (int_range 1 8)));
      ( 3,
        (* any byte, or the etype, msg_type and update_type bytes the
           kind reader checks; any value, or a small one *)
        let* i = oneof [ int_bound 27; oneofl [ 4; 5; 6; 17 ] ] in
        let* v = frequency [ (1, int_bound 255); (3, int_bound 7) ] in
        let b = Bytes.copy b in
        Bytes.set_uint8 b i v;
        return b );
    ]

let readers_match b =
  let module W = Wire in
  let decoded = W.control_of_bytes b in
  decoded = Codec_oracle.control_of_bytes b
  &&
  match decoded with
  | None -> W.control_kind_of_bytes b = None
  | Some c ->
    W.control_kind_of_bytes b = Some c.kind
    && W.control_flow_id_of_bytes b = c.flow_id
    && W.control_version_new_of_bytes b = c.version_new
    && W.control_version_old_of_bytes b = c.version_old
    && W.control_dist_new_of_bytes b = c.dist_new
    && W.control_dist_old_of_bytes b = c.dist_old
    && W.control_update_type_of_bytes b = W.update_type_to_int c.update_type
    && W.control_layer_of_bytes b = c.layer
    && W.control_counter_of_bytes b = c.counter
    && W.control_flow_size_of_bytes b = c.flow_size
    && W.control_egress_port_of_bytes b = c.egress_port
    && W.control_notify_port_of_bytes b = c.notify_port
    && W.control_role_of_bytes b = c.role
    && W.control_src_node_of_bytes b = c.src_node

let prop_control_in_place =
  QCheck.Test.make ~name:"control readers and writer = the record codec" ~count:1000
    (QCheck.pair
       (QCheck.make ~print:hex control_bytes_gen)
       (QCheck.make ~print:(Format.asprintf "%a" Wire.pp_control) control_record_gen))
    (fun (b, c) ->
      let written = control_frame_of c in
      readers_match b
      && Bytes.equal written (Wire.control_to_bytes c)
      && Bytes.equal written (Codec_oracle.control_to_bytes c))

(* ------------------------------------------------------------------ *)
(* Allocation guard on the switch's frame path                          *)
(* ------------------------------------------------------------------ *)

(* Minor words of one [f i] for i = 1 .. [runs], averaged after a
   warm-up run [f 0]. *)
let words_per_run ~runs f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to runs do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

(* Minor words one [Switch.receive] of [bytes] at [port] allocates. *)
let words_per_frame sw ~port bytes =
  words_per_run ~runs:1000 (fun _ -> P4update.Switch.receive sw ~port bytes)

let check_budget what words budget =
  if words > budget then
    Alcotest.failf "%s allocates %.0f minor words (budget %.0f)" what words budget

(* A forward whose link is down: [Netsim.transmit] counts the loss and
   schedules nothing, so what remains is the switch's own cost.  Every
   frame must be forwarded and reach the link. *)
let forwarded_words (w : Harness.World.t) sw ~port ~next bytes =
  let node = P4update.Switch.node sw in
  Netsim.fail_link w.net ~u:node ~v:next ~at:(Dessim.Sim.now w.sim);
  ignore (Harness.World.run w);
  let stats = P4update.Switch.stats sw in
  let forwarded = stats.P4update.Switch.forwarded
  and lost = (Netsim.counters w.net).Netsim.dropped_by_failure in
  let words = words_per_frame sw ~port bytes in
  Alcotest.(check int) "every frame forwarded" (forwarded + 1001) stats.P4update.Switch.forwarded;
  Alcotest.(check int) "every emission transmitted" (lost + 1001)
    (Netsim.counters w.net).Netsim.dropped_by_failure;
  words

(* A forwarded data frame costs the copy of the frame for the rewrite
   and nothing else: 4 words (22 bytes and a header), and the budget
   leaves half as much again.  Through the interpreter it cost 32 words:
   the parse path, the context and the outcome. *)
let frame_word_budget = 6.0

let test_forwarded_frame_allocation () =
  let w, flow_id = forwarding_world () in
  let sw, in_port, _ = mid_hop w in
  let next = List.nth Topo.Topologies.fig1_old_path 2 in
  check_budget "forwarded frame"
    (forwarded_words w sw ~port:in_port ~next (data_frame flow_id))
    frame_word_budget

let test_injected_frame_allocation () =
  let w, flow_id = forwarding_world () in
  let next = List.nth Topo.Topologies.fig1_old_path 1 in
  check_budget "host-injected frame"
    (forwarded_words w w.Harness.World.switches.(0) ~port:Netsim.port_host ~next
       (data_frame flow_id))
    frame_word_budget

(* A duplicate notification between switches: after an SL update
   completes, the committed successor's UNM reaches a committed node on
   a data port and Alg. 1 ignores it.  The frame is read in place, so
   that is both verification views: 17 words, and the budget leaves a
   third as much again (34 when the frame was decoded into a record, 56
   through the interpreter). *)
let unm_word_budget = 23.0

let test_unm_allocation () =
  let w, flow_id = forwarding_world () in
  let version =
    P4update.Controller.update_flow w.Harness.World.controller ~flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  ignore (Harness.World.run w);
  let node, succ =
    match Topo.Topologies.fig1_new_path with _ :: n :: s :: _ -> (n, s) | _ -> assert false
  in
  let u = P4update.Switch.uib w.Harness.World.switches.(succ) in
  let unm =
    Wire.control_to_bytes
      {
        (Wire.control_default Wire.Unm) with
        flow_id;
        version_new = version;
        version_old = P4update.Uib.ver_prev u flow_id;
        dist_new = P4update.Uib.dist_cur u flow_id;
        dist_old = P4update.Uib.dist_prev u flow_id;
        layer = 1;
        flow_size = P4update.Uib.flow_size u flow_id;
        role = Wire.role_committed;
        src_node = succ;
      }
  in
  let sw = w.Harness.World.switches.(node) in
  let commits = (P4update.Switch.stats sw).P4update.Switch.commits in
  let port = Netsim.port_of_neighbor w.net ~node ~neighbor:succ in
  check_budget "inter-switch UNM" (words_per_frame sw ~port unm) unm_word_budget;
  Alcotest.(check int) "ignored: no commit" commits
    (P4update.Switch.stats sw).P4update.Switch.commits;
  Alcotest.(check int) "nothing scheduled" 0 (Dessim.Sim.pending w.Harness.World.sim)

(* Fail the link from [node] toward [neighbor] now, so a notification
   sent that way is counted lost and schedules nothing. *)
let cut (w : Harness.World.t) ~node ~neighbor =
  Netsim.fail_link w.net ~u:node ~v:neighbor ~at:(Dessim.Sim.now w.sim);
  ignore (Harness.World.run w)

(* A staged egress indication: a UIM with the flow-egress role and a
   version above the committed one reaches the new path's egress, which
   stages it and schedules the commit, and one [Sim.step] fires the
   commit, whose notification toward its child is lost on a failed
   link.  The staged commit (16 words), its action and list cells, its
   table binding and timer closure, the event and clock floats, and the
   notification written once into its frame (5): 48 words, and the
   budget leaves a third as much again (118 when the frame was decoded
   into a record, the commit eagerly re-encoded it, the notification was
   a record before its bytes and every commit built a fold closure and
   a boxed clock for hooks it did not have). *)
let egress_uim_word_budget = 64.0

let test_egress_uim_allocation () =
  let w, flow_id = forwarding_world () in
  let version =
    P4update.Controller.update_flow w.Harness.World.controller ~flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  ignore (Harness.World.run w);
  let egress, child =
    match List.rev Topo.Topologies.fig1_new_path with
    | e :: c :: _ -> (e, c)
    | _ -> assert false
  in
  cut w ~node:egress ~neighbor:child;
  let sw = w.Harness.World.switches.(egress) in
  let u = P4update.Switch.uib sw in
  let runs = 1000 in
  let uims =
    Array.init (runs + 1) (fun i ->
        Wire.control_to_bytes
          {
            (Wire.control_default Wire.Uim) with
            flow_id;
            version_new = version + 1 + i;
            egress_port = P4update.Uib.egress_port u flow_id;
            notify_port = Netsim.port_of_neighbor w.net ~node:egress ~neighbor:child;
            flow_size = P4update.Uib.flow_size u flow_id;
            role = Wire.role_flow_egress;
            src_node = -1;
          })
  in
  let sim = w.Harness.World.sim in
  let commits = (P4update.Switch.stats sw).P4update.Switch.commits in
  let words =
    words_per_run ~runs (fun i ->
        P4update.Switch.receive sw ~port:Netsim.port_controller uims.(i);
        if not (Dessim.Sim.step sim) || Dessim.Sim.pending sim <> 0 then
          Alcotest.fail "one step must fire the commit and leave nothing pending")
  in
  Alcotest.(check int) "every indication committed" (commits + runs + 1)
    (P4update.Switch.stats sw).P4update.Switch.commits;
  check_budget "staged egress UIM" words egress_uim_word_budget

(* A notification Alg. 1 commits: the committed successor's UNM reaches
   a node whose staged indication it matches, with its committed version
   set back below it before each run, and one [Sim.step] fires the
   commit, whose own notification is lost on a failed link.  The two
   verification views (17 words) and what the staged egress UIM above
   costs: 65 words, and the budget leaves a third as much again (135
   through the decoded record, as above). *)
let committed_unm_word_budget = 87.0

let test_committed_unm_allocation () =
  let w, flow_id = forwarding_world () in
  let version =
    P4update.Controller.update_flow w.Harness.World.controller ~flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  ignore (Harness.World.run w);
  let child, node, succ =
    match Topo.Topologies.fig1_new_path with c :: n :: s :: _ -> (c, n, s) | _ -> assert false
  in
  cut w ~node ~neighbor:child;
  let su = P4update.Switch.uib w.Harness.World.switches.(succ) in
  let unm =
    Wire.control_to_bytes
      {
        (Wire.control_default Wire.Unm) with
        flow_id;
        version_new = version;
        version_old = P4update.Uib.ver_prev su flow_id;
        dist_new = P4update.Uib.dist_cur su flow_id;
        dist_old = P4update.Uib.dist_prev su flow_id;
        layer = 1;
        flow_size = P4update.Uib.flow_size su flow_id;
        role = Wire.role_committed;
        src_node = succ;
      }
  in
  let sw = w.Harness.World.switches.(node) in
  let u = P4update.Switch.uib sw in
  let port = Netsim.port_of_neighbor w.net ~node ~neighbor:succ in
  let sim = w.Harness.World.sim in
  let commits = (P4update.Switch.stats sw).P4update.Switch.commits in
  let runs = 1000 in
  let words =
    words_per_run ~runs (fun _ ->
        P4update.Uib.set_ver_cur u flow_id (version - 1);
        P4update.Switch.receive sw ~port unm;
        if not (Dessim.Sim.step sim) || Dessim.Sim.pending sim <> 0 then
          Alcotest.fail "one step must fire the commit and leave nothing pending")
  in
  Alcotest.(check int) "every notification committed" (commits + runs + 1)
    (P4update.Switch.stats sw).P4update.Switch.commits;
  check_budget "committed UNM" words committed_unm_word_budget

(* The untraced event path.  A stale UIM (below the version the switch
   has staged) sent through [Netsim.controller_transmit] and taken by one
   [Sim.step]: the send, the delivery event and the rejection of the
   frame, read in place.  No trace key or attribute is built without a
   sink, no register access allocates and, with no control-fault hook,
   the send builds no delivery closure: 18 words, and the budget leaves
   a third as much again (45 when the send built a closure and the frame
   was decoded into a record, 47 while the delivery was a closure, 69
   through the interpreter, 159 when every UIM built its trace key). *)
let stale_uim_word_budget = 24.0

let test_stale_uim_allocation () =
  let w, flow_id = forwarding_world () in
  let version =
    P4update.Controller.update_flow w.Harness.World.controller ~flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  ignore (Harness.World.run w);
  let node = List.nth Topo.Topologies.fig1_new_path 1 in
  let sw = w.Harness.World.switches.(node) in
  let u = P4update.Switch.uib sw in
  Alcotest.(check int) "staged the update" version (P4update.Uib.uim_version u flow_id);
  let uim =
    Wire.control_to_bytes
      { (Wire.control_default Wire.Uim) with flow_id; version_new = version - 1; src_node = -1 }
  in
  let sim = w.Harness.World.sim in
  let send () =
    Netsim.controller_transmit w.net ~to_:node uim;
    if not (Dessim.Sim.step sim) || Dessim.Sim.pending sim <> 0 then
      Alcotest.fail "one step must deliver the UIM and leave nothing pending"
  in
  send ();
  let runs = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    send ()
  done;
  check_budget "stale UIM delivery"
    ((Gc.minor_words () -. before) /. float_of_int runs)
    stale_uim_word_budget;
  Alcotest.(check int) "still staged, never re-staged" version
    (P4update.Uib.uim_version u flow_id)

(* [Sim.step] over a queue holding 63 later events and one
   preallocated no-op thunk, so every removal sifts the displaced last
   entry up: the schedule boxes the event time once and the step boxes
   the clock once, 4 words per event (6 while [Event_heap]'s sift-up was
   a call that boxed the entry's time, 9 when a step built
   [Some (time, thunk)]). *)
let step_word_budget = 4.0

let test_sim_step_allocation () =
  let sim = Dessim.Sim.create () in
  let noop () = () in
  for _ = 1 to 63 do
    Dessim.Sim.schedule sim ~delay:1e9 noop
  done;
  let event () =
    Dessim.Sim.schedule sim ~delay:0.5 noop;
    ignore (Dessim.Sim.step sim)
  in
  event ();
  let runs = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    event ()
  done;
  check_budget "Sim.step" ((Gc.minor_words () -. before) /. float_of_int runs) step_word_budget

(* One data-frame delivery audited by [Harness.Traffic]: the frame
   carries a probe still in the flight window (delivered, not drained)
   and ttl 1, so one [Sim.step] hands it to the hop observers and the
   next switch drops it.  Minus the same step without the auditor, the
   hop costs only its one-word slot in the hop arena, whose chunks it
   grows, about 1 word, and the budget leaves a third as much again (3
   when each hop consed the visited node onto the probe's list, 15 when
   each hop also decoded the whole header into [Some] record and looked
   the probe up with [Hashtbl.find_opt]). *)
let audited_hop_word_budget = 2.0

(* The same step without the auditor: one unaudited data delivery,
   [Netsim.transmit] plus the [Sim.step] that hands the ttl-1 frame to
   the next switch, which drops it.  The frame event (a 5-field record,
   6 words) and three boxed floats, the hop delay, the event time and
   the clock: 12 words (17 when each delivery was a closure over its
   node, port and frame that built a [Netsim.Data] block on firing). *)
let delivery_word_budget = 12.0

let test_audited_hop_allocation () =
  let words_per_step ~audited =
    let w, flow_id = forwarding_world () in
    if audited then begin
      let t =
        Harness.Traffic.attach
          ~workload:
            { Harness.Traffic.default_workload with
              tw_mean_gap_ms = 1.0; tw_poisson = false; tw_stop_ms = 1.5 }
          w
      in
      Harness.Traffic.start t;
      ignore (Harness.World.run w);
      Alcotest.(check int) "probe 0 awaits drain" 1 (Harness.Traffic.in_flight t)
    end;
    let hop = List.nth Topo.Topologies.fig1_old_path 1 in
    let port = Netsim.port_of_neighbor w.net ~node:0 ~neighbor:hop in
    let frame =
      Wire.data_to_bytes
        { Wire.d_flow_id = flow_id; seq = 0; ttl = 1; origin = 0; dst = 7; tag = 0; d_ts = 0 }
    in
    let sim = w.Harness.World.sim in
    let deliver () =
      Netsim.transmit w.net ~from:0 ~port frame;
      if not (Dessim.Sim.step sim) || Dessim.Sim.pending sim <> 0 then
        Alcotest.fail "one step must deliver the frame and leave nothing pending"
    in
    deliver ();
    let runs = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to runs do
      deliver ()
    done;
    (Gc.minor_words () -. before) /. float_of_int runs
  in
  let plain = words_per_step ~audited:false in
  check_budget "unaudited delivery" plain delivery_word_budget;
  check_budget "audited hop" (words_per_step ~audited:true -. plain) audited_hop_word_budget

(* One probe's first delivery at its flow's egress, audited by
   [Harness.Traffic]: N distinct probes are in the flight window, each
   dropped at the ingress (ttl 1) before it moved, and each is delivered
   once by a [Sim.step] that hands its frame from the last hop to the
   egress switch.  Minus the same deliveries without the auditor, the
   cost is the hop's arena slot and the floats boxed on the way to the
   egress hook, which reads the frame in place and stores the latency
   unboxed in the window: about 6 words, and the budget leaves a third
   as much again (10 when the hop was a cons and the latency a boxed
   float in the probe's record, 58 when every delivery also fed a
   latency histogram: the retained sample's cons, boxed floats for its
   sum and running maximum, and one boxed float per halving step of the
   log2 bucket search, about ten for these ~1 s latencies). *)
let audited_egress_word_budget = 8.0

let test_audited_egress_allocation () =
  let probes = 1000 in
  let words_per_delivery ~audited =
    let w, flow_id = forwarding_world () in
    if audited then begin
      let t =
        Harness.Traffic.attach
          ~workload:
            { Harness.Traffic.tw_mean_gap_ms = 1.0;
              tw_poisson = false;
              tw_stop_ms = float_of_int (probes + 1) +. 0.5;
              tw_ttl = 1 }
          w
      in
      Harness.Traffic.start t;
      ignore (Harness.World.run w);
      Alcotest.(check int) "every probe awaits delivery" (probes + 1)
        (Harness.Traffic.in_flight t)
    end;
    let egress, last_hop =
      match List.rev Topo.Topologies.fig1_old_path with
      | egress :: last_hop :: _ -> (egress, last_hop)
      | _ -> assert false
    in
    let port = Netsim.port_of_neighbor w.net ~node:last_hop ~neighbor:egress in
    let frames =
      Array.init (probes + 1) (fun seq ->
          Wire.data_to_bytes
            { Wire.d_flow_id = flow_id; seq; ttl = 1; origin = 0; dst = 7; tag = 0; d_ts = 0 })
    in
    let sim = w.Harness.World.sim in
    let deliver seq =
      Netsim.transmit w.net ~from:last_hop ~port frames.(seq);
      if not (Dessim.Sim.step sim) || Dessim.Sim.pending sim <> 0 then
        Alcotest.fail "one step must deliver the frame and leave nothing pending"
    in
    deliver 0;
    let before = Gc.minor_words () in
    for seq = 1 to probes do
      deliver seq
    done;
    (Gc.minor_words () -. before) /. float_of_int probes
  in
  let plain = words_per_delivery ~audited:false in
  check_budget "unaudited egress delivery" plain delivery_word_budget;
  check_budget "audited egress" (words_per_delivery ~audited:true -. plain)
    audited_egress_word_budget

(* One probe injection: the [Sim.step] that fires a flow's injector,
   which writes the probe into [Harness.Traffic]'s flight window, builds
   and schedules its frame and re-schedules the flow's injector.  The
   ingress's link is down, so the step after it drops the frame.  About
   33 words: the probe's window columns and first hop (8, amortised
   chunks), its header record and frame, the frame event, the flow
   lookup and the floats boxed by the step and the two schedules; the
   budget leaves a third as much again (45 when each probe was a record
   with a consed hop and the injector a fresh closure per probe). *)
let probe_injection_word_budget = 44.0

let test_probe_injection_allocation () =
  let w, _ = forwarding_world () in
  let sim = w.Harness.World.sim in
  Netsim.fail_link w.net ~u:0 ~v:(List.nth Topo.Topologies.fig1_old_path 1)
    ~at:(Dessim.Sim.now sim);
  ignore (Harness.World.run w);
  let t =
    Harness.Traffic.attach
      ~workload:
        { Harness.Traffic.default_workload with
          tw_mean_gap_ms = 1.0; tw_poisson = false; tw_stop_ms = 1e9 }
      w
  in
  Harness.Traffic.start t;
  let probes = 1000 and words = ref 0 in
  for i = 0 to probes do
    let before = Gc.minor_words () in
    let fired = Dessim.Sim.step sim in
    let after = Gc.minor_words () in
    if i > 0 then words := !words + int_of_float (after -. before);
    if not (fired && Dessim.Sim.step sim) || Dessim.Sim.pending sim <> 1 then
      Alcotest.fail "an injection and its dropped frame must leave the next injection pending"
  done;
  Alcotest.(check int) "one probe per injection" (probes + 1) (Harness.Traffic.injected t);
  let words = float_of_int !words /. float_of_int probes in
  check_budget "probe injection" words probe_injection_word_budget

(* [Controller.prepare_batch] on 20 drawn AttMpls updates, each from a
   registered flow's shortest path to its second-shortest with the §7.5
   policy choosing the type (the bench row
   [controller/prepare-batch-attmpls]): per update, the UIM records,
   their tuples and conses, the prepared record and its segments when
   DL.  150 words, and the budget leaves a third as much again (483
   when the list pipeline labelled, segmented twice and copied a
   default record per UIM). *)
let prepare_word_budget = 200.0

let test_prepare_batch_allocation () =
  let module C = P4update.Controller in
  let topo = Topo.Topologies.attmpls () in
  let ctl = C.create (Netsim.create (Dessim.Sim.create ()) topo) in
  let updates =
    Harness.Experiments.random_updates (Random.State.make [| 42 |]) topo.Topo.Topologies.graph
      ~count:20
  in
  let requests =
    List.mapi
      (fun flow_id (old_path, new_path) ->
        let dst = List.nth old_path (List.length old_path - 1) in
        ignore (C.register_flow ctl ~flow_id ~src:(List.hd old_path) ~dst ~size:100 ~path:old_path);
        (flow_id, new_path))
      updates
  in
  ignore (C.prepare_batch ctl requests);
  let runs = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (C.prepare_batch ctl requests))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (runs * List.length requests) in
  check_budget "prepared update" words prepare_word_budget

let suite =
  [
    Alcotest.test_case "header byte alignment" `Quick test_header_byte_alignment_required;
    Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip_simple;
    Alcotest.test_case "header set truncates" `Quick test_header_set_truncates;
    QCheck_alcotest.to_alcotest prop_header_byte_loop;
    QCheck_alcotest.to_alcotest prop_header_bit_loop;
    QCheck_alcotest.to_alcotest prop_control_roundtrip;
    QCheck_alcotest.to_alcotest prop_data_roundtrip;
    Alcotest.test_case "parser rejects truncated" `Quick test_parser_rejects_truncated;
    Alcotest.test_case "parser rejects select on unknown field" `Quick
      test_parser_rejects_unknown_select_field;
    Alcotest.test_case "parser rejects select without extraction" `Quick
      test_parser_rejects_select_without_extract;
    Alcotest.test_case "parser payload of a whole frame" `Quick test_parser_whole_frame_payload;
    Alcotest.test_case "parser visit budget" `Quick test_parser_visit_budget;
    QCheck_alcotest.to_alcotest prop_parser_oracle;
    Alcotest.test_case "register read/write" `Quick test_register_read_write;
    Alcotest.test_case "register bounds" `Quick test_register_bounds;
    Alcotest.test_case "forward keeps the payload" `Quick test_forward_keeps_payload;
    Alcotest.test_case "ttl expiry is counted" `Quick test_ttl_expiry;
    Alcotest.test_case "flow id is masked" `Quick test_flow_id_masked;
    Alcotest.test_case "malformed frames are dropped" `Quick test_malformed_frames_dropped;
    Alcotest.test_case "delivered buffer unchanged" `Quick test_delivered_buffer_unchanged;
    QCheck_alcotest.to_alcotest prop_switch_oracle;
    Alcotest.test_case "switch oracle inputs reach every verdict" `Quick
      test_switch_oracle_reach;
    QCheck_alcotest.to_alcotest prop_control_in_place;
    Alcotest.test_case "forwarded frame allocation" `Quick test_forwarded_frame_allocation;
    Alcotest.test_case "host-injected frame allocation" `Quick test_injected_frame_allocation;
    Alcotest.test_case "inter-switch UNM allocation" `Quick test_unm_allocation;
    Alcotest.test_case "stale UIM delivery allocation" `Quick test_stale_uim_allocation;
    Alcotest.test_case "staged egress UIM allocation" `Quick test_egress_uim_allocation;
    Alcotest.test_case "committed UNM allocation" `Quick test_committed_unm_allocation;
    Alcotest.test_case "Sim.step allocation" `Quick test_sim_step_allocation;
    Alcotest.test_case "audited hop allocation" `Quick test_audited_hop_allocation;
    Alcotest.test_case "audited egress allocation" `Quick test_audited_egress_allocation;
    Alcotest.test_case "probe injection allocation" `Quick test_probe_injection_allocation;
    Alcotest.test_case "prepared update allocation" `Quick test_prepare_batch_allocation;
  ]
