(* Unit and property tests for the P4 data-plane model. *)

module Bitval = P4rt.Bitval
module Header = P4rt.Header
module Packet = P4rt.Packet
module Parser = P4rt.Parser
module Register = P4rt.Register
module Table = P4rt.Table
module Pipeline = P4rt.Pipeline

(* ------------------------------------------------------------------ *)
(* Bitval                                                               *)
(* ------------------------------------------------------------------ *)

let test_bitval_wrap () =
  let a = Bitval.make ~width:8 250 and b = Bitval.make ~width:8 10 in
  Alcotest.(check int) "add wraps mod 256" 4 (Bitval.value (Bitval.add a b));
  Alcotest.(check int) "sub wraps" 246 (Bitval.value (Bitval.sub b (Bitval.make ~width:8 20)));
  Alcotest.(check int) "make truncates" 1 (Bitval.value (Bitval.make ~width:4 17))

let test_bitval_width_checks () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bitval: width 0 outside [1, 62]")
    (fun () -> ignore (Bitval.make ~width:0 1));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bitval.add: width mismatch (8 vs 16)")
    (fun () -> ignore (Bitval.add (Bitval.make ~width:8 1) (Bitval.make ~width:16 1)))

let prop_bitval_add_commutes =
  QCheck.Test.make ~name:"bitval add commutes" ~count:200
    QCheck.(pair (int_bound 65535) (int_bound 65535))
    (fun (x, y) ->
      let a = Bitval.make ~width:16 x and b = Bitval.make ~width:16 y in
      Bitval.equal (Bitval.add a b) (Bitval.add b a))

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
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_exact_match () =
  let t =
    Table.create ~name:"fwd" ~keys:[ ("flow", Table.Exact) ] ~default_action:"drop" ()
  in
  Table.add_entry t
    { Table.patterns = [ Table.P_exact 7 ]; action_name = "set_port"; action_data = [ 3 ];
      priority = 0 };
  let hit = Table.apply t [ 7 ] in
  Alcotest.(check string) "action" "set_port" hit.Table.action;
  Alcotest.(check (list int)) "data" [ 3 ] hit.Table.data;
  let miss = Table.apply t [ 8 ] in
  Alcotest.(check bool) "miss" false miss.Table.hit;
  Alcotest.(check string) "default" "drop" miss.Table.action

let test_table_ternary_priority () =
  let t =
    Table.create ~name:"acl" ~keys:[ ("addr", Table.Ternary) ] ~default_action:"allow" ()
  in
  Table.add_entry t
    { Table.patterns = [ Table.P_ternary (0x10, 0xF0) ]; action_name = "wide"; action_data = [];
      priority = 1 };
  Table.add_entry t
    { Table.patterns = [ Table.P_ternary (0x12, 0xFF) ]; action_name = "narrow"; action_data = [];
      priority = 5 };
  Alcotest.(check string) "higher priority wins" "narrow" (Table.apply t [ 0x12 ]).Table.action;
  Alcotest.(check string) "only wide matches" "wide" (Table.apply t [ 0x15 ]).Table.action

let test_table_lpm () =
  let t = Table.create ~name:"rib" ~keys:[ ("dst", Table.Lpm) ] ~default_action:"drop" () in
  let prefix value len = Table.P_lpm (value lsl (62 - len), len) in
  Table.add_entry t
    { Table.patterns = [ prefix 0b10 2 ]; action_name = "short"; action_data = []; priority = 0 };
  Table.add_entry t
    { Table.patterns = [ prefix 0b1011 4 ]; action_name = "long"; action_data = []; priority = 0 };
  let key_of bits len = bits lsl (62 - len) in
  Alcotest.(check string) "longest prefix wins" "long"
    (Table.apply t [ key_of 0b101101 6 ]).Table.action;
  Alcotest.(check string) "short prefix" "short" (Table.apply t [ key_of 0b100000 6 ]).Table.action

let test_table_wrong_arity () =
  let t = Table.create ~name:"t" ~keys:[ ("a", Table.Exact) ] ~default_action:"d" () in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_entry(t): pattern arity mismatch")
    (fun () ->
      Table.add_entry t
        { Table.patterns = [ Table.P_exact 1; Table.P_exact 2 ]; action_name = "x";
          action_data = []; priority = 0 })

(* ------------------------------------------------------------------ *)
(* Pipeline                                                             *)
(* ------------------------------------------------------------------ *)

let echo_schema = Header.define ~name:"echo" [ ("tag", 8); ("port", 8) ]

let echo_parser =
  Parser.create
    [ { Parser.state_name = "start"; extracts = Some echo_schema; transition = Accept } ]

let make_echo_pipeline () =
  let counter = Register.create ~name:"seen" ~width:32 ~size:1 in
  let program =
    {
      Pipeline.prog_parser = echo_parser;
      prog_ingress =
        (fun ctx ->
          Register.write counter 0 (Register.read counter 0 + 1);
          match Packet.header (Pipeline.packet ctx) "echo" with
          | Some h ->
            let tag = Header.get h "tag" in
            if tag = 0xFF then Pipeline.mark_to_drop ctx
            else if tag = 0xCC then begin
              Pipeline.clone ctx ~session:1;
              Pipeline.mark_to_drop ctx
            end
            else if tag = 0xAB then Pipeline.resubmit ctx
            else Pipeline.set_egress ctx (Header.get h "port")
          | None -> Pipeline.mark_to_drop ctx);
      prog_egress = (fun _ -> ());
    }
  in
  let p = Pipeline.create ~name:"echo" ~registers:[ counter ] ~tables:[] program in
  Pipeline.set_clone_session p ~session:1 ~port:9;
  p

let echo_bytes ~tag ~port =
  let h = Header.make echo_schema in
  let h = Header.set h "tag" tag in
  let h = Header.set h "port" port in
  Packet.serialize (Packet.make [ h ])

let test_pipeline_forwarding () =
  let p = make_echo_pipeline () in
  let out = Pipeline.process p ~ingress_port:0 (echo_bytes ~tag:1 ~port:5) in
  (match out.Pipeline.emissions with
   | [ { Pipeline.out_port; _ } ] -> Alcotest.(check int) "forwarded to 5" 5 out_port
   | _ -> Alcotest.fail "expected one emission");
  Alcotest.(check int) "register counted" 1 (Register.read (Pipeline.register p "seen") 0)

let test_pipeline_drop () =
  let p = make_echo_pipeline () in
  let out = Pipeline.process p ~ingress_port:0 (echo_bytes ~tag:0xFF ~port:5) in
  Alcotest.(check int) "dropped" 0 (List.length out.Pipeline.emissions)

let test_pipeline_clone () =
  let p = make_echo_pipeline () in
  let out = Pipeline.process p ~ingress_port:0 (echo_bytes ~tag:0xCC ~port:5) in
  (match out.Pipeline.emissions with
   | [ { Pipeline.out_port; _ } ] -> Alcotest.(check int) "clone to session port" 9 out_port
   | _ -> Alcotest.fail "expected the clone only")

let test_pipeline_resubmit () =
  let p = make_echo_pipeline () in
  let out = Pipeline.process p ~ingress_port:0 (echo_bytes ~tag:0xAB ~port:5) in
  Alcotest.(check bool) "resubmit requested" true (out.Pipeline.resubmitted <> None)

let test_pipeline_malformed_dropped () =
  let p = make_echo_pipeline () in
  let out = Pipeline.process p ~ingress_port:0 (Bytes.make 1 'x') in
  Alcotest.(check int) "nothing emitted" 0 (List.length out.Pipeline.emissions)

let test_registers_persist_across_packets () =
  let p = make_echo_pipeline () in
  for _ = 1 to 5 do
    ignore (Pipeline.process p ~ingress_port:0 (echo_bytes ~tag:1 ~port:2))
  done;
  Alcotest.(check int) "five packets counted" 5 (Register.read (Pipeline.register p "seen") 0)

let suite =
  [
    Alcotest.test_case "bitval wrap-around" `Quick test_bitval_wrap;
    Alcotest.test_case "bitval width checks" `Quick test_bitval_width_checks;
    QCheck_alcotest.to_alcotest prop_bitval_add_commutes;
    Alcotest.test_case "header byte alignment" `Quick test_header_byte_alignment_required;
    Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip_simple;
    Alcotest.test_case "header set truncates" `Quick test_header_set_truncates;
    QCheck_alcotest.to_alcotest prop_header_byte_loop;
    QCheck_alcotest.to_alcotest prop_header_bit_loop;
    QCheck_alcotest.to_alcotest prop_control_roundtrip;
    QCheck_alcotest.to_alcotest prop_data_roundtrip;
    Alcotest.test_case "parser rejects truncated" `Quick test_parser_rejects_truncated;
    Alcotest.test_case "register read/write" `Quick test_register_read_write;
    Alcotest.test_case "register bounds" `Quick test_register_bounds;
    Alcotest.test_case "table exact match" `Quick test_table_exact_match;
    Alcotest.test_case "table ternary priority" `Quick test_table_ternary_priority;
    Alcotest.test_case "table lpm" `Quick test_table_lpm;
    Alcotest.test_case "table arity check" `Quick test_table_wrong_arity;
    Alcotest.test_case "pipeline forwarding" `Quick test_pipeline_forwarding;
    Alcotest.test_case "pipeline drop" `Quick test_pipeline_drop;
    Alcotest.test_case "pipeline clone" `Quick test_pipeline_clone;
    Alcotest.test_case "pipeline resubmit" `Quick test_pipeline_resubmit;
    Alcotest.test_case "pipeline drops malformed frames" `Quick test_pipeline_malformed_dropped;
    Alcotest.test_case "registers persist across packets" `Quick
      test_registers_persist_across_packets;
  ]
