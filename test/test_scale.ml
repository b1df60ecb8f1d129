(* Scale-engine and event-queue tests.

   - Differential qcheck properties: the flat structure-of-arrays
     [Event_heap] against the seed's boxed heap, kept verbatim as
     [Event_heap_ref]: same pop order on random schedules (including
     exact same-instant ties), same [fold] candidate sets, same
     [remove_seq] behavior, with mid-schedule [compact] observably
     transparent.
   - Wire codec equivalence: the direct-store control and data codecs
     emit byte-identical frames to the bit-by-bit Packet oracle in
     [Codec_oracle] and return the parse graph's decode verdicts on
     arbitrary byte strings.
   - Determinism pins: the chaos delivery hashes, the mc final-state
     fingerprints on the default schedule and a trace JSONL digest are
     pinned to literals, so any change to event ordering — however
     subtle — fails here rather than silently shifting every figure.
   - The scale engine itself: completes, is deterministic, and the
     sampled Thm. 1-4 probes see no violations. *)

module Heap = Dessim.Event_heap
module Heap_ref = Event_heap_ref
module W = P4update.Wire

(* --- differential queue properties ---------------------------------- *)

(* A schedule mixing pushes (with deliberately colliding times drawn
   from a small grid), pops and occasional tag attachments. *)
let op_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 400)
      (pair (int_bound 2) (pair (int_bound 15) (int_bound 7))))

let tag_of_int i =
  { Heap.tag_kind = "k" ^ string_of_int (i mod 3); tag_node = i; tag_flow = i * 7;
    tag_hash = i * 31 }

(* Drive the flat heap and the boxed oracle through the same schedule;
   compare every observable.  Every 64th op compacts the flat heap (the
   oracle is untouched): compaction must be observably transparent. *)
let run_schedule ops =
  let h = Heap.create () and r = Heap_ref.create () in
  let payload = ref 0 in
  let opno = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun (op, (t, tagged)) ->
      incr opno;
      if !opno land 63 = 0 then Heap.compact h;
      match op with
      | 0 | 1 ->
        (* push; time grid of 16 values forces same-instant ties *)
        let time = float_of_int t /. 2.0 in
        let p = !payload in
        incr payload;
        let tag = if tagged = 0 then Some (tag_of_int p) else None in
        Heap.push ?tag h ~time p;
        Heap_ref.push ?tag r ~time p
      | _ -> (
        match (Heap.pop h, Heap_ref.pop r) with
        | None, None -> ()
        | Some (t1, p1), Some (t2, p2) -> check (t1 = t2 && p1 = p2)
        | _ -> check false))
    ops;
  (* same sizes, same candidate sets under fold, same drain order *)
  check (Heap.size h = Heap_ref.size r);
  let entry ~time ~seq ~tag = (seq, time, tag) in
  let flat_set =
    List.sort compare
      (Heap.fold h ~init:[] ~f:(fun acc ~time ~seq ~tag -> entry ~time ~seq ~tag :: acc))
  and ref_set =
    List.sort compare
      (Heap_ref.fold r ~init:[] ~f:(fun acc ~time ~seq ~tag -> entry ~time ~seq ~tag :: acc))
  in
  check (flat_set = ref_set);
  let rec drain () =
    match (Heap.pop h, Heap_ref.pop r) with
    | None, None -> ()
    | Some (t1, p1), Some (t2, p2) ->
      check (t1 = t2 && p1 = p2);
      drain ()
    | _ -> check false
  in
  drain ();
  !ok

let prop_same_pop_order =
  QCheck.Test.make ~name:"flat heap = boxed heap on random schedules" ~count:300 op_gen
    run_schedule

let remove_seq_matches (ops, victim) =
  let h = Heap.create () and r = Heap_ref.create () in
  let payload = ref 0 in
  List.iter
    (fun (op, (t, tagged)) ->
      if op <= 1 then begin
        let time = float_of_int t /. 2.0 in
        let p = !payload in
        incr payload;
        let tag = if tagged = 0 then Some (tag_of_int p) else None in
        Heap.push ?tag h ~time p;
        Heap_ref.push ?tag r ~time p
      end
      else begin
        ignore (Heap.pop h);
        ignore (Heap_ref.pop r)
      end)
    ops;
  (* both queues allocate seqs identically (same push count), so the
     same victim seq must exist in both or in neither *)
  let a = Heap.remove_seq h victim and b = Heap_ref.remove_seq r victim in
  if a <> b then false
  else begin
    let rec drain () =
      match (Heap.pop h, Heap_ref.pop r) with
      | None, None -> true
      | Some (t1, p1), Some (t2, p2) -> t1 = t2 && p1 = p2 && drain ()
      | _ -> false
    in
    drain ()
  end

let prop_remove_seq =
  QCheck.Test.make ~name:"flat heap remove_seq matches boxed heap" ~count:300
    QCheck.(pair op_gen (int_bound 1000))
    remove_seq_matches

(* --- wire codec equivalence ------------------------------------------ *)

(* Random well-formed records from an LCG seed (field bounds match the
   schema widths, all 8/16/32-bit). *)
let field_drawer seed =
  let s = ref seed in
  fun m ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod m

let control_of_seed seed =
  let nxt = field_drawer seed in
  let kinds = [| W.Frm; W.Uim; W.Unm; W.Ufm; W.Cln; W.Wdm |] in
  { W.kind = kinds.(nxt 6); flow_id = nxt 0x10000; version_new = nxt 0x10000;
    version_old = nxt 0x10000; dist_new = nxt 0x10000; dist_old = nxt 0x10000;
    update_type = (if nxt 2 = 0 then W.Sl else W.Dl); layer = nxt 0x100;
    counter = nxt 0x10000; flow_size = nxt 0x10000; egress_port = nxt 0x100;
    notify_port = nxt 0x100; role = nxt 0x100; src_node = nxt 0x10000 }

let data_of_seed seed =
  let nxt = field_drawer seed in
  { W.d_flow_id = nxt 0x10000; seq = nxt 0x40000000; ttl = nxt 0x100;
    origin = nxt 0x100; dst = nxt 0x10000; tag = nxt 0x10000; d_ts = nxt 0x40000000 }

let prop_control_codec_equiv =
  QCheck.Test.make ~name:"fast control codec = boxed codec" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let c = control_of_seed seed in
      let bytes = W.control_to_bytes c in
      let oracle = Codec_oracle.control_to_bytes c in
      Bytes.equal bytes oracle
      && Bytes.equal (P4rt.Packet.serialize (W.control_to_packet c)) oracle
      && W.control_of_bytes bytes = Some c
      && Codec_oracle.control_of_bytes bytes = Some c
      && W.control_kind_of_bytes bytes = Some (W.msg_kind_to_int c.W.kind))

let prop_data_codec_equiv =
  QCheck.Test.make ~name:"fast data codec = boxed codec" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let d = data_of_seed seed in
      let bytes = W.data_to_bytes d in
      let oracle = Codec_oracle.data_to_bytes d in
      Bytes.equal bytes oracle
      && Bytes.equal (P4rt.Packet.serialize (W.data_to_packet d)) oracle
      && W.data_of_bytes bytes = Some d
      && Codec_oracle.data_of_bytes bytes = Some d)

let prop_decode_equiv_random_bytes =
  (* On arbitrary byte strings (short frames, foreign etypes, invalid
     enum fields) the direct decoders must return the exact verdict of
     the parse-graph path. *)
  let frame_gen =
    (* Half the frames carry a valid eth header, so the enum checks and
       the short-frame cut-offs are reached, not just the etype test. *)
    QCheck.Gen.(
      let* etype = oneofl [ None; Some W.etype_control; Some W.etype_data ] in
      let* tail = string_size ~gen:char (int_range 0 34) in
      match etype with
      | None -> string_size ~gen:char (int_range 0 40)
      | Some e ->
        let eth = Printf.sprintf "\000\000\000\000%c%c" (Char.chr (e lsr 8)) (Char.chr (e land 0xff)) in
        return (eth ^ tail))
  in
  QCheck.Test.make ~name:"fast decode verdicts = parser verdicts on random frames"
    ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") frame_gen)
    (fun s ->
      let b = Bytes.of_string s in
      let oracle_control = Codec_oracle.control_of_bytes b in
      W.control_of_bytes b = oracle_control
      && W.data_of_bytes b = Codec_oracle.data_of_bytes b
      && W.control_kind_of_bytes b
         = Option.map (fun c -> W.msg_kind_to_int c.W.kind) oracle_control)

(* --- determinism pins ----------------------------------------------- *)

(* Chaos delivery hashes: scenario x seed -> r_trace_hash.  These came
   from the seed heap and must survive any kernel change byte-for-byte. *)
let chaos_pins =
  [
    ("fig1", 1, 0x0c4b5288); ("fig1", 2, 0x1a4f97b3); ("fig1", 7, 0x04cfedd3);
    ("b4", 1, 0x3d79d541); ("b4", 2, 0x306bcd89); ("b4", 7, 0x331496eb);
    ("fat-tree", 1, 0x36073a28); ("fat-tree", 2, 0x1ed378c3); ("fat-tree", 7, 0x14937a0a);
  ]

let test_chaos_pins () =
  List.iter
    (fun (name, seed, expected) ->
      let scenario = Option.get (Harness.Chaos.scenario_of_string name) in
      let cfg = Harness.Run_config.make ~seed () in
      let r = Harness.Chaos.run cfg ~scenario in
      Alcotest.(check int)
        (Printf.sprintf "chaos %s seed %d hash" name seed)
        expected r.Harness.Chaos.r_trace_hash)
    chaos_pins

(* Mc final-state fingerprints on the default (no-reorder) schedule. *)
let mc_pins =
  [
    ("fig2a", 0x6bacad033b797c0f); ("six-skip", 0x281bbbae60df553d);
    ("ruleless-gateway", 0xbe2af20d92b11ab); ("stale-label", 0x58fdeef786755994);
  ]

let mc_fingerprint sc =
  let ctx = sc.Mc.Scenario.sc_build Mc.Scenario.default_cfg in
  let w = ctx.Mc.Scenario.cx_world in
  ignore (Harness.World.run ~until:ctx.Mc.Scenario.cx_horizon_ms w);
  let sw =
    Array.fold_left
      (fun acc s -> (acc * 131) lxor P4update.Switch.fingerprint s)
      17 w.Harness.World.switches
  in
  (sw * 8191) lxor P4update.Controller.fingerprint w.Harness.World.controller

let test_mc_pins () =
  List.iter
    (fun (name, expected) ->
      let sc = Option.get (Mc.Scenario.find name) in
      Alcotest.(check int)
        (Printf.sprintf "mc %s fingerprint" name)
        expected (mc_fingerprint sc))
    mc_pins

(* Trace digest: the JSONL stream of one traced single-flow run is a
   deterministic function of the seed; djb2 keeps the pin readable. *)
let djb2 s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

let test_trace_digest () =
  let setup =
    { Harness.Scenarios.topo = Topo.Topologies.fig1; stragglers = false;
      congestion = false; headroom = 1.4; control = None }
  in
  let cfg = Harness.Run_config.make ~seed:2024 () in
  let r =
    Harness.Traced.run_single cfg setup Harness.Scenarios.P4u
      ~old_path:Topo.Topologies.fig1_old_path ~new_path:Topo.Topologies.fig1_new_path
  in
  Alcotest.(check int) "trace JSONL digest" 0x2aabd754
    (djb2 (Obs.Trace.to_jsonl r.Harness.Traced.tr_sink));
  Alcotest.(check (float 0.001)) "completion" 204.5 r.Harness.Traced.tr_completion_ms

(* --- the scale engine ----------------------------------------------- *)

let small_workload =
  { Harness.Scale.default_workload with
    Harness.Run.updates = 120; flows = 30; probe = Harness.Run.Every_bursts 10 }

let test_scale_runs () =
  let cfg = Harness.Run_config.make ~seed:11 () in
  let r = Harness.Run.run small_workload cfg (Topo.Topologies.attmpls ()) in
  Alcotest.(check int) "all updates pushed" 120 r.r_pushed;
  Alcotest.(check bool) "most updates completed (rest overtaken by skip-ahead)" true
    (r.r_completed > 85);
  Alcotest.(check int) "no invariant violations" 0 (List.length r.r_violations);
  Alcotest.(check bool) "probes ran" true (r.r_probes > 0);
  Alcotest.(check bool) "percentiles ordered" true (r.r_p50_ms <= r.r_p99_ms)

let test_scale_deterministic () =
  let cfg = Harness.Run_config.make ~seed:11 () in
  let run () = Harness.Run.run small_workload cfg (Topo.Topologies.chinanet ()) in
  let a = run () and b = run () in
  Alcotest.(check int) "completed" a.r_completed b.r_completed;
  Alcotest.(check int) "events" a.r_events b.r_events;
  Alcotest.(check (float 0.0)) "sim time" a.r_sim_ms b.r_sim_ms;
  Alcotest.(check (float 0.0)) "p99" a.r_p99_ms b.r_p99_ms

let test_world_flows () =
  let topo = Topo.Topologies.b4 () in
  let path = Option.get (Topo.Graph.shortest_path topo.Topo.Topologies.graph ~src:0 ~dst:9) in
  let w =
    Harness.World.make ~seed:3 ~flows:[ Harness.World.flow ~src:0 ~dst:9 ~path () ] topo
  in
  match Harness.World.flow_of_pair w ~src:0 ~dst:9 with
  | None -> Alcotest.fail "installed flow not found"
  | Some f ->
    Alcotest.(check (list int)) "path installed" path f.P4update.Controller.path;
    Alcotest.(check int) "one flow" 1 (List.length (Harness.World.flows w));
    Alcotest.(check bool) "find_flow agrees" true
      (Harness.World.find_flow w ~flow_id:f.P4update.Controller.flow_id = Some f)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_same_pop_order;
    QCheck_alcotest.to_alcotest prop_remove_seq;
    QCheck_alcotest.to_alcotest prop_control_codec_equiv;
    QCheck_alcotest.to_alcotest prop_data_codec_equiv;
    QCheck_alcotest.to_alcotest prop_decode_equiv_random_bytes;
    Alcotest.test_case "chaos delivery hashes pinned" `Slow test_chaos_pins;
    Alcotest.test_case "mc fingerprints pinned" `Quick test_mc_pins;
    Alcotest.test_case "trace digest pinned" `Quick test_trace_digest;
    Alcotest.test_case "scale run completes clean" `Quick test_scale_runs;
    Alcotest.test_case "scale run is deterministic" `Quick test_scale_deterministic;
    Alcotest.test_case "world builds with declared flows" `Quick test_world_flows;
  ]
