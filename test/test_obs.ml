(* Tests for the lib/obs tracing subsystem: span causality, category
   filtering, anchors, JSON round-trips, Chrome-trace well-formedness,
   and trace determinism. *)

module Trace = Obs.Trace
module Json = Obs.Json

(* --- spans --- *)

let test_span_nesting () =
  let now = ref 0.0 in
  let sink = Trace.create () in
  Trace.adopt sink ~clock:(fun () -> !now);
  let parent = Trace.span_begin sink ~cat:"update" "update" ~attrs:[ Trace.flow 7 ] in
  now := 1.0;
  let child = Trace.span_begin sink ~cat:"switch" "commit" ~parent ~node:3 in
  Alcotest.(check bool) "ids nonzero" true (parent <> 0 && child <> 0);
  Alcotest.(check bool) "ids distinct" true (parent <> child);
  now := 5.0;
  Trace.span_end sink child ~attrs:[ Trace.str "outcome" "committed" ];
  now := 10.0;
  Trace.span_end sink parent;
  match Trace.events sink with
  | [
   Trace.Span_begin p;
   Trace.Span_begin c;
   Trace.Span_end { id = i1; ts = t1; _ };
   Trace.Span_end { id = i2; ts = t2; _ };
  ] ->
    Alcotest.(check int) "root has no parent" 0 p.Trace.parent;
    Alcotest.(check int) "child parent is root" parent c.Trace.parent;
    Alcotest.(check int) "child node" 3 c.Trace.node;
    Alcotest.(check (float 0.0)) "child begin ts" 1.0 c.Trace.ts;
    Alcotest.(check int) "child ends first" child i1;
    Alcotest.(check int) "parent ends last" parent i2;
    Alcotest.(check bool) "nested interval" true (t1 <= t2)
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_disabled_and_filtered () =
  (* An untraced simulation has no sink, so its layers record nowhere. *)
  Alcotest.(check bool) "untraced sim has no sink" true
    (Option.is_none (Dessim.Sim.trace (Dessim.Sim.create ())));
  let sink = Trace.create ~exclude:[ "sim" ] () in
  Alcotest.(check int) "excluded cat yields id 0" 0
    (Trace.span_begin sink ~cat:"sim" "dispatch");
  Trace.span_end sink 0;
  Trace.instant sink ~cat:"sim" "tick";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events sink));
  ignore (Trace.span_begin sink ~cat:"ctl" "kept");
  Alcotest.(check int) "other cats recorded" 1 (List.length (Trace.events sink))

let test_anchors () =
  let sink = Trace.create () in
  let id = Trace.span_begin sink ~cat:"update" "update" in
  Trace.anchor_set sink Trace.Uim ~flow:1 ~version:2 ~node:3 id;
  Alcotest.(check int) "get" id (Trace.anchor_get sink Trace.Uim ~flow:1 ~version:2 ~node:3);
  Alcotest.(check int) "kind is part of the key" 0
    (Trace.anchor_get sink Trace.Unm ~flow:1 ~version:2 ~node:3);
  Alcotest.(check int) "node is part of the key" 0
    (Trace.anchor_get sink Trace.Uim ~flow:1 ~version:2 ~node:4);
  Alcotest.(check int) "pop" id (Trace.anchor_pop sink Trace.Uim ~flow:1 ~version:2 ~node:3);
  Alcotest.(check int) "pop empties" 0
    (Trace.anchor_get sink Trace.Uim ~flow:1 ~version:2 ~node:3);
  Trace.anchor_set sink Trace.Update ~flow:1 ~version:2 0;
  Alcotest.(check int) "id 0 not anchored" 0
    (Trace.anchor_get sink Trace.Update ~flow:1 ~version:2)

(* --- JSON --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "a\"b\\c\nd");
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.Float 0.1) ]);
      ]
  in
  let s = Json.to_string v in
  (match Json.of_string s with
  | Json.Obj fields ->
    Alcotest.(check int) "field count" 3 (List.length fields);
    (match List.assoc "name" fields with
    | Json.Str str -> Alcotest.(check string) "escapes survive" "a\"b\\c\nd" str
    | _ -> Alcotest.fail "name not a string")
  | _ -> Alcotest.fail "roundtrip lost the object");
  (match Json.of_string "1 2" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted")

(* --- parser robustness (fuzz) --- *)

(* The parser's contract on arbitrary input: return a value or raise
   [Parse_error] — never stack-overflow, never leak [Failure] from the
   number conversions, never return on malformed input. *)
let parses_or_rejects s =
  match Json.of_string s with
  | _ -> true
  | exception Json.Parse_error _ -> true

let fuzz_garbage =
  QCheck.Test.make ~name:"arbitrary bytes: value or Parse_error" ~count:2000
    QCheck.(string_gen_of_size (Gen.int_range 0 64) Gen.char)
    parses_or_rejects

(* Truncations of valid documents must fail cleanly (a prefix of a JSON
   document is never itself a complete document, except prefixes that end
   exactly on a value boundary — both outcomes are acceptable; crashing
   is not). *)
let fuzz_truncated =
  let doc =
    {|{"name":"a\"b\\c","xs":[1,2.5,false,null,{"k":[0.1,"A"]}],"n":-12}|}
  in
  QCheck.Test.make ~name:"truncated documents: value or Parse_error" ~count:200
    QCheck.(int_range 0 (String.length doc))
    (fun n -> parses_or_rejects (String.sub doc 0 n))

(* Unbalanced deep nesting must raise [Parse_error], not overflow the
   stack: beyond [max_depth] opens, the parser gives up. *)
let fuzz_deep_nesting =
  QCheck.Test.make ~name:"deep nesting rejected, no stack overflow" ~count:20
    QCheck.(int_range 600 100_000)
    (fun depth ->
      let opens = String.concat "" (List.init depth (fun i -> if i mod 2 = 0 then "[" else "{\"k\":")) in
      match Json.of_string opens with
      | _ -> false (* unbalanced input must not parse *)
      | exception Json.Parse_error _ -> true)

let test_depth_limit_boundary () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (* Balanced nesting below the bound still parses... *)
  (match Json.of_string (nested 100) with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "shallow nesting should parse"
  | exception Json.Parse_error e -> Alcotest.failf "shallow nesting rejected: %s" e);
  (* ...and beyond it fails with the dedicated error. *)
  match Json.of_string (nested 1000) with
  | _ -> Alcotest.fail "over-deep nesting accepted"
  | exception Json.Parse_error _ -> ()

(* Broken escapes: every way to mangle a string escape must be a clean
   [Parse_error]. *)
let test_bad_escapes () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Json.Parse_error _ -> ())
    [
      {|"\q"|};        (* unknown escape *)
      {|"\u12"|};      (* truncated \u *)
      {|"\u12zz"|};    (* non-hex \u *)
      {|"\|};          (* escape at EOF *)
      {|"abc|};        (* unterminated string *)
      "\"a\n";         (* unterminated with control char *)
    ]

let fuzz_bad_escape_positions =
  (* Splice a backslash at every position of a valid string document; the
     result must parse or cleanly reject. *)
  let doc = {|"abcdefghij"|} in
  QCheck.Test.make ~name:"spliced backslashes: value or Parse_error" ~count:100
    QCheck.(int_range 0 (String.length doc - 1))
    (fun i ->
      parses_or_rejects (String.sub doc 0 i ^ "\\" ^ String.sub doc i (String.length doc - i)))

(* --- end-to-end: traced runs --- *)

let fig1_setup =
  { (Harness.Scenarios.single Topo.Topologies.fig1) with config = Netsim.default_config }

let traced_fig1 seed =
  Harness.Traced.run ~seed fig1_setup Harness.Scenarios.P4u

let test_trace_determinism () =
  let a = traced_fig1 1234 and b = traced_fig1 1234 in
  Alcotest.(check (float 0.0)) "same completion" a.Harness.Traced.tr_completion_ms
    b.Harness.Traced.tr_completion_ms;
  Alcotest.(check string) "byte-identical JSONL"
    (Trace.to_jsonl a.Harness.Traced.tr_sink)
    (Trace.to_jsonl b.Harness.Traced.tr_sink)

let test_no_sink_equivalence () =
  (* Without a sink the run must produce the same completion time:
     tracing never perturbs the simulation. *)
  let traced = traced_fig1 1234 in
  let bare =
    Harness.Scenarios.run fig1_setup Harness.Scenarios.P4u ~seed:1234
  in
  Alcotest.(check (float 0.0)) "identical completion" bare
    traced.Harness.Traced.tr_completion_ms

let test_chrome_export_wellformed () =
  let r = traced_fig1 1234 in
  let json = Json.of_string (Trace.to_chrome (Trace.events r.Harness.Traced.tr_sink)) in
  let evs =
    match Json.to_list json with
    | Some evs -> evs
    | None -> Alcotest.fail "chrome export is not a JSON array"
  in
  Alcotest.(check bool) "nonempty" true (evs <> []);
  let phases = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph =
        match Json.member "ph" ev with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.fail "event without ph"
      in
      Hashtbl.replace phases ph ();
      (match Json.member "pid" ev with
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "event without pid");
      if ph = "X" then begin
        match (Json.member "ts" ev, Json.member "dur" ev, Json.member "name" ev) with
        | Some (Json.Float ts), Some (Json.Float dur), Some (Json.Str _) ->
          Alcotest.(check bool) "ts/dur sane" true (ts >= 0.0 && dur >= 0.0)
        | _ -> Alcotest.fail "X event missing ts/dur/name"
      end)
    evs;
  List.iter
    (fun ph ->
      Alcotest.(check bool) (Printf.sprintf "has %S events" ph) true
        (Hashtbl.mem phases ph))
    [ "M"; "X"; "s"; "f" ];
  (* The causal span tree of the ISSUE's acceptance test: one complete
     span per protocol stage. *)
  let x_names =
    List.filter_map
      (fun ev ->
        match (Json.member "ph" ev, Json.member "name" ev) with
        | Some (Json.Str "X"), Some (Json.Str n) -> Some n
        | _ -> None)
      evs
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "span %S present" n) true
        (List.mem n x_names))
    [ "update"; "uim.flight"; "commit"; "unm.hop"; "ufm.flight" ]

let test_phase_breakdown () =
  let r = traced_fig1 1234 in
  (match r.Harness.Traced.tr_phases with
  | [] -> Alcotest.fail "no phase rows"
  | rows ->
    List.iter
      (fun (row : Harness.Traced.phase_row) ->
        let sum =
          row.ph_prep +. row.ph_ctl_flight +. row.ph_propagation
          +. row.ph_verification +. row.ph_ack
        in
        Alcotest.(check (float 1e-6)) "phases sum to total" row.ph_total sum;
        Alcotest.(check bool) "phases nonnegative" true
          (row.ph_prep >= 0.0 && row.ph_ctl_flight >= 0.0
          && row.ph_propagation >= 0.0 && row.ph_verification >= 0.0
          && row.ph_ack >= 0.0))
      rows;
    (* Single-flow run: the one root span's total is the completion time. *)
    let total = List.fold_left (fun acc r -> acc +. r.Harness.Traced.ph_total) 0.0 rows in
    let err = Float.abs (total -. r.Harness.Traced.tr_completion_ms) in
    Alcotest.(check bool) "total within 1% of completion" true
      (err <= 0.01 *. r.Harness.Traced.tr_completion_ms));
  Alcotest.(check bool) "renders" true
    (String.length (Harness.Traced.render_phases r.Harness.Traced.tr_phases) > 0)

(* --- a sink belongs to one simulation --- *)

let test_sink_has_one_owner () =
  let sink = Trace.create () in
  ignore (Dessim.Sim.create ~trace:sink ());
  Alcotest.check_raises "a second simulation is refused"
    (Invalid_argument "Trace.adopt: this sink already belongs to a simulation") (fun () ->
      ignore (Dessim.Sim.create ~trace:sink ()))

(* Fig. 1's SL update. *)
let fig1_update ?trace () =
  let w =
    Harness.World.make ~seed:11 ?trace (Topo.Topologies.fig1 ())
      ~flows:[ Harness.World.flow ~src:0 ~dst:7 ~path:Topo.Topologies.fig1_old_path () ]
  in
  let flow = Option.get (Harness.World.flow_of_pair w ~src:0 ~dst:7) in
  ignore
    (P4update.Controller.update_flow w.controller ~flow_id:flow.P4update.Controller.flow_id
       ~new_path:Topo.Topologies.fig1_new_path ~update_type:P4update.Wire.Sl ());
  w

(* A faulted B4 update in the chaos harness's style: §11 recovery and
   switch watchdogs on, every fifth control frame dropped, and node 3 of
   the new path down from 20 to 320 ms. *)
let b4_faulted ?trace () =
  let w =
    Harness.World.make ~seed:3 ?trace (Topo.Topologies.b4 ())
      ~flows:[ Harness.World.flow ~src:5 ~dst:9 ~path:[ 5; 4; 6; 7; 9 ] () ]
  in
  P4update.Controller.enable_recovery w.controller;
  Array.iter (fun sw -> P4update.Switch.enable_watchdog sw ~timeout_ms:200.0) w.switches;
  let frames = ref 0 in
  Netsim.set_control_fault w.net (fun ~dir:_ _ ->
      incr frames;
      if !frames mod 5 = 0 then Netsim.Drop else Netsim.Deliver);
  Netsim.fail_node w.net ~node:3 ~at:20.0;
  Netsim.restore_node w.net ~node:3 ~at:320.0;
  let flow = Option.get (Harness.World.flow_of_pair w ~src:5 ~dst:9) in
  ignore
    (P4update.Controller.update_flow w.controller ~flow_id:flow.P4update.Controller.flow_id
       ~new_path:[ 5; 6; 3; 2; 4; 7; 9 ] ());
  w

let alone (build : ?trace:Trace.sink -> unit -> Harness.World.t) =
  let sink = Trace.create () in
  ignore (Harness.World.run (build ~trace:sink ()));
  Trace.to_jsonl sink

(* Two traced worlds stepped alternately, with an untraced third stepped
   in between, record exactly what each records alone. *)
let test_worlds_side_by_side () =
  let sink_a = Trace.create () and sink_b = Trace.create () in
  let a = fig1_update ~trace:sink_a () and b = b4_faulted ~trace:sink_b () in
  let c = b4_faulted () in
  let rec interleave steps =
    if steps > 1_000_000 then Alcotest.fail "worlds did not drain";
    let more_a = Dessim.Sim.step a.sim in
    let more_c = Dessim.Sim.step c.sim in
    let more_b = Dessim.Sim.step b.sim in
    if more_a || more_b || more_c then interleave (steps + 1)
  in
  interleave 0;
  let jsonl_a = Trace.to_jsonl sink_a and jsonl_b = Trace.to_jsonl sink_b in
  Alcotest.(check bool) "fig1 traced" true (jsonl_a <> "");
  Alcotest.(check bool) "b4 recovered under its root span" true
    (List.exists
       (function Trace.Instant { cat = "recovery"; _ } -> true | _ -> false)
       (Trace.events sink_b));
  Alcotest.(check string) "fig1 sink as alone" (alone fig1_update) jsonl_a;
  Alcotest.(check string) "b4 sink as alone" (alone b4_faulted) jsonl_b

let suite =
  [
    Alcotest.test_case "span nesting & causality" `Quick test_span_nesting;
    Alcotest.test_case "disabled & filtered are no-ops" `Quick test_disabled_and_filtered;
    Alcotest.test_case "anchors" `Quick test_anchors;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest fuzz_garbage;
    QCheck_alcotest.to_alcotest fuzz_truncated;
    QCheck_alcotest.to_alcotest fuzz_deep_nesting;
    Alcotest.test_case "json depth limit boundary" `Quick test_depth_limit_boundary;
    Alcotest.test_case "json bad escapes rejected" `Quick test_bad_escapes;
    QCheck_alcotest.to_alcotest fuzz_bad_escape_positions;
    Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
    Alcotest.test_case "no-sink equivalence" `Quick test_no_sink_equivalence;
    Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export_wellformed;
    Alcotest.test_case "phase breakdown" `Quick test_phase_breakdown;
    Alcotest.test_case "a sink has one simulation" `Quick test_sink_has_one_owner;
    Alcotest.test_case "two traced worlds side by side" `Quick test_worlds_side_by_side;
  ]
