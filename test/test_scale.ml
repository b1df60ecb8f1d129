(* Scale-engine and event-queue tests.

   - Differential qcheck properties: the flat structure-of-arrays
     [Event_heap] against the seed's boxed heap, kept verbatim as
     [Event_heap_ref]: same pop order on random schedules (including
     exact same-instant ties), same [fold] candidate sets, same
     [remove_seq] and [clear] behavior mid-schedule, with mid-schedule
     [compact] observably transparent; and on deep hold-model schedules
     with continuous times, where a pop descends nine levels and more.
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
   from a small grid), pops, removals by seq and a rare clear.  Of the
   200 op codes, 134 push (so the
   heap drifts upward and outgrows its initial capacity), 20 remove,
   45 pop and 1 clears. *)
let op_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 600)
      (pair (int_bound 199) (pair (int_bound 15) (int_bound 7))))

type op = Push | Pop | Remove | Clear

let op_of_code c =
  if c < 134 then Push else if c < 154 then Remove else if c < 199 then Pop else Clear

(* What a schedule reached on the flat heap: whether it grew past the
   initial capacity, and whether some compaction shrank the arrays while
   entries were live (so [resize] renumbered their slots). *)
type reach = { grew : bool; compacted_live : bool }

(* Same sizes, same candidate sets under fold, same drain order. *)
let same_pending h r =
  let entry ~time ~seq ~payload = (seq, time, payload) in
  let flat_set =
    List.sort compare
      (Heap.fold h ~init:[] ~f:(fun acc ~time ~seq ~payload ->
           entry ~time ~seq ~payload :: acc))
  and ref_set =
    List.sort compare
      (Heap_ref.fold r ~init:[] ~f:(fun acc ~time ~seq ~payload ->
           entry ~time ~seq ~payload :: acc))
  in
  let rec drain () =
    match (Heap.pop h, Heap_ref.pop r) with
    | None, None -> true
    | Some (t1, p1), Some (t2, p2) -> t1 = t2 && p1 = p2 && drain ()
    | _ -> false
  in
  Heap.size h = Heap_ref.size r && flat_set = ref_set && drain ()

(* Drive the flat heap and the boxed oracle through the same schedule;
   compare every observable.  Every 64th op compacts the flat heap (the
   oracle is untouched): compaction must be observably transparent.
   Removals pick a seq among the last 128 pushed (pending or not), so
   payload slots are freed out of heap order and recycled across grow,
   compact, clear and remove. *)
let run_schedule_reach ops =
  let h = Heap.create () and r = Heap_ref.create () in
  (* the capacity the first push allocates; compact never goes below it *)
  let initial = ref 0 in
  let grew = ref false and compacted_live = ref false in
  let payload = ref 0 in
  let opno = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun (code, (t, back)) ->
      incr opno;
      if !opno land 63 = 0 then begin
        let before = Heap.capacity h in
        Heap.compact h;
        if Heap.capacity h < before && Heap.size h > 0 then compacted_live := true
      end;
      (match op_of_code code with
       | Push ->
         (* time grid of 16 values forces same-instant ties *)
         let time = float_of_int t /. 2.0 in
         let p = !payload in
         incr payload;
         Heap.push h ~time p;
         Heap_ref.push r ~time p
       | Pop -> (
         match (Heap.pop h, Heap_ref.pop r) with
         | None, None -> ()
         | Some (t1, p1), Some (t2, p2) -> check (t1 = t2 && p1 = p2)
         | _ -> check false)
       | Remove ->
         (* payloads equal seqs: both queues number pushes identically *)
         let victim = !payload - 1 - ((t * 8) + back) in
         let a = Heap.remove_seq h victim and b = Heap_ref.remove_seq r victim in
         check
           (match (a, b) with
            | None, None -> true
            | Some (t1, p1), Some (t2, p2) -> t1 = t2 && p1 = p2
            | _ -> false)
       | Clear ->
         Heap.clear h;
         Heap_ref.clear r);
      let c = Heap.capacity h in
      if !initial = 0 then initial := c else if c > !initial then grew := true)
    ops;
  check (same_pending h r);
  (!ok, { grew = !grew; compacted_live = !compacted_live })

let run_schedule ops = fst (run_schedule_reach ops)

(* The differential property checks only what its schedules reach.  On
   a fixed sample of generated schedules, a good share must outgrow the
   initial capacity (so [grow] runs against the oracle) and see a
   compaction that shrinks the arrays under live entries (so [resize]
   renumbers their slots). *)
let test_schedule_reach () =
  let rand = Random.State.make [| 2027 |] in
  let n = 300 in
  let reach =
    List.map
      (fun ops -> snd (run_schedule_reach ops))
      (QCheck.Gen.generate ~rand ~n (QCheck.get_gen op_gen))
  in
  let share f = List.length (List.filter f reach) * 100 / n in
  let grew = share (fun r -> r.grew) and compacted = share (fun r -> r.compacted_live) in
  (* this sample: 64% grow, 31% compact under live entries *)
  Alcotest.(check bool) "half the schedules grow the heap" true (grew >= 50);
  Alcotest.(check bool) "a fifth compact under live entries" true (compacted >= 20)

let prop_same_pop_order =
  QCheck.Test.make ~name:"flat heap = boxed heap on random schedules" ~count:300 op_gen
    run_schedule

let remove_seq_matches (ops, victim) =
  let h = Heap.create () and r = Heap_ref.create () in
  let payload = ref 0 in
  List.iter
    (fun (code, (t, _)) ->
      (* two pushes to one pop: the heap drifts upward and grows *)
      if code mod 3 <= 1 then begin
        let time = float_of_int t /. 2.0 in
        let p = !payload in
        incr payload;
        Heap.push h ~time p;
        Heap_ref.push r ~time p
      end
      else begin
        ignore (Heap.pop h);
        ignore (Heap_ref.pop r)
      end)
    ops;
  (* both queues allocate seqs identically (same push count), so the
     same victim seq must exist in both or in neither *)
  let a = Heap.remove_seq h victim and b = Heap_ref.remove_seq r victim in
  a = b && same_pending h r

let prop_remove_seq =
  QCheck.Test.make ~name:"flat heap remove_seq matches boxed heap" ~count:300
    QCheck.(pair op_gen (int_bound 1000))
    remove_seq_matches

(* A deep heap with no time ties.  [op_gen]'s 16-value time grid makes
   nearly every comparison a tie and its heaps stay shallow; here times
   are continuous in hold-model shape (a push lands an exponential gap
   after the last popped time) and pushes outnumber pops and removals,
   so long schedules hold hundreds of entries and a pop descends nine
   levels and more, choosing the earlier child on float order alone.
   Of the 100 op codes, 70 push, 22 pop and 8 remove a seq among the
   last 1024 pushed, mostly an interior entry. *)
let hold_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 3000)
      (triple (int_bound 99) (exponential 1.0) (int_bound 1023)))

(* Run a hold schedule on both queues; the result says whether every
   pop, removal and the final pending set agreed, and the peak size. *)
let run_hold_schedule ops =
  let h = Heap.create () and r = Heap_ref.create () in
  let now = ref 0.0 and pushed = ref 0 and peak = ref 0 in
  let ok = ref true in
  List.iter
    (fun (code, gap, back) ->
      if code < 70 then begin
        Heap.push h ~time:(!now +. gap) !pushed;
        Heap_ref.push r ~time:(!now +. gap) !pushed;
        incr pushed
      end
      else if code < 92 then begin
        match (Heap.pop h, Heap_ref.pop r) with
        | None, None -> ()
        | Some (t1, p1), Some (t2, p2) when t1 = t2 && p1 = p2 -> now := t1
        | _ -> ok := false
      end
      else begin
        let victim = !pushed - 1 - back in
        if Heap.remove_seq h victim <> Heap_ref.remove_seq r victim then ok := false
      end;
      peak := max !peak (Heap.size h))
    ops;
  (!ok && same_pending h r, !peak)

let prop_deep_hold =
  QCheck.Test.make ~name:"flat heap = boxed heap on deep tie-free schedules" ~count:200 hold_gen
    (fun ops -> fst (run_hold_schedule ops))

(* At 512 entries a pop's descent runs at least nine levels.  This
   sample: 62% of the schedules get there. *)
let test_hold_depth () =
  let rand = Random.State.make [| 2027 |] in
  let n = 200 in
  let deep =
    List.length
      (List.filter
         (fun ops -> snd (run_hold_schedule ops) >= 512)
         (QCheck.Gen.generate ~rand ~n (QCheck.get_gen hold_gen)))
  in
  Alcotest.(check bool) "half the hold schedules reach 512 entries" true (deep * 2 >= n)

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
      && Codec_oracle.control_of_bytes bytes = Some c)

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

(* Arbitrary byte strings: short frames, foreign etypes, invalid enum
   fields.  Two thirds carry a valid eth header, so the enum checks and
   the short-frame cut-offs are reached, not just the etype test. *)
let random_frame =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      let* etype = oneofl [ None; Some W.etype_control; Some W.etype_data ] in
      let* tail = string_size ~gen:char (int_range 0 34) in
      match etype with
      | None -> string_size ~gen:char (int_range 0 40)
      | Some e ->
        let eth = Printf.sprintf "\000\000\000\000%c%c" (Char.chr (e lsr 8)) (Char.chr (e land 0xff)) in
        return (eth ^ tail))

let prop_decode_equiv_random_bytes =
  (* The direct decoders must return the exact verdict of the
     parse-graph path. *)
  QCheck.Test.make ~name:"fast decode verdicts = parser verdicts on random frames"
    ~count:500 random_frame
    (fun s ->
      let b = Bytes.of_string s in
      W.control_of_bytes b = Codec_oracle.control_of_bytes b
      && W.data_of_bytes b = Codec_oracle.data_of_bytes b)

let prop_data_field_accessors =
  (* The in-place field reads of the auditor's hop and egress hooks
     (seq, flow id, ingress timestamp) agree with the full decode: -1
     exactly where it rejects the frame. *)
  QCheck.Test.make ~name:"data seq / flow id accessors = data_of_bytes" ~count:500
    random_frame
    (fun s ->
      let b = Bytes.of_string s in
      match W.data_of_bytes b with
      | None ->
        W.data_seq_of_bytes b = -1 && W.data_flow_id_of_bytes b = -1
        && W.data_ts_of_bytes b = -1
      | Some d ->
        W.data_seq_of_bytes b = d.W.seq && W.data_flow_id_of_bytes b = d.W.d_flow_id
        && W.data_ts_of_bytes b = d.W.d_ts)

let prop_data_readers_and_forward_copy =
  (* The switch's data path: in-place ttl / dst / tag reads agree with the
     full decode, and the forward copy is the frame the parse graph makes
     when its data header's ttl and tag are set by name and the packet is
     deparsed (trailing bytes kept), on a fresh buffer. *)
  QCheck.Test.make ~name:"data ttl / dst / tag readers and forward copy = decode"
    ~count:500
    QCheck.(triple random_frame (int_bound 0x1FF) (int_bound 0x1FFFF))
    (fun (s, ttl, tag) ->
      let b = Bytes.of_string s in
      match W.data_of_bytes b with
      | None ->
        W.data_ttl_of_bytes b = -1 && W.data_dst_of_bytes b = -1 && W.data_tag_of_bytes b = -1
        && (match W.data_forward_copy b ~ttl ~tag with
            | _ -> false
            | exception Invalid_argument _ -> true)
      | Some d ->
        let copy = W.data_forward_copy b ~ttl ~tag in
        let deparsed =
          let pkt = P4rt.Parser.run W.parser b in
          let set h =
            if P4rt.Header.schema_of h == W.data_schema then
              P4rt.Header.set (P4rt.Header.set h "ttl" ttl) "tag" tag
            else h
          in
          P4rt.Packet.serialize
            { pkt with P4rt.Packet.headers = List.map set pkt.P4rt.Packet.headers }
        in
        W.data_ttl_of_bytes b = d.W.ttl && W.data_dst_of_bytes b = d.W.dst
        && W.data_tag_of_bytes b = d.W.tag
        && copy != b
        && Bytes.to_string b = s
        && Bytes.equal deparsed copy
        && W.data_of_bytes copy = Some { d with W.ttl = ttl land 0xFF; tag = tag land 0xFFFF })

let prop_classify_equiv =
  (* The frame class read off the base header is the parse graph's
     verdict. *)
  QCheck.Test.make ~name:"frame classes = parse-graph verdicts on random frames" ~count:500
    random_frame
    (fun s ->
      let b = Bytes.of_string s in
      let expected =
        match P4rt.Parser.run W.parser b with
        | exception P4rt.Parser.Parse_error _ -> W.Truncated
        | pkt ->
          if P4rt.Packet.header pkt W.data_schema <> None then W.Data_frame
          else if P4rt.Packet.header pkt W.p4u_schema <> None then W.Control_frame
          else W.Foreign
      in
      W.classify b = expected)

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
      let r = Harness.Chaos.run ~faults:Harness.Run_config.default_faults ~seed scenario in
      Alcotest.(check int)
        (Printf.sprintf "chaos %s seed %d hash" name seed)
        expected r.Harness.Chaos.r_trace_hash)
    chaos_pins

(* Mc final-state fingerprints on the default (no-reorder) schedule. *)
let mc_pins =
  [
    ("fig2a", 0x1be259aa174c8f45); ("six-skip", 0x65b2c22d03cdeb83);
    ("ruleless-gateway", 0x31c5969245199ab3); ("stale-label", 0x231d8000c1354624);
  ]

let mc_fingerprint sc =
  let ctx = sc.Mc.Scenario.sc_build None in
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
    { (Harness.Scenarios.single Topo.Topologies.fig1) with config = Netsim.default_config }
  in
  let r = Harness.Traced.run ~seed:2024 setup Harness.Scenarios.P4u in
  Alcotest.(check int) "trace JSONL digest" 0x2aabd754
    (djb2 (Obs.Trace.to_jsonl r.Harness.Traced.tr_sink));
  Alcotest.(check (float 0.001)) "completion" 204.5 r.Harness.Traced.tr_completion_ms

(* Data-frame trace digest: the pin above is control-only, so this one
   races probes through a faulted B4 chaos run under a sink that keeps
   the p4rt and net categories.  Every forwarded, delivered, dropped and
   corrupted probe leaves a [pipeline.process] span in the JSONL. *)
let data_trace_faults = { Harness.Run_config.default_faults with window_ms = 600.0 }

let data_trace_workload =
  { Harness.Traffic.default_workload with Harness.Traffic.tw_stop_ms = 250.0 }

let data_trace_run () =
  let sink = Obs.Trace.create () in
  ignore
    (Harness.Chaos.run ~traffic:data_trace_workload ~trace:sink ~faults:data_trace_faults
       ~horizon_ms:3000.0 ~seed:3 Harness.Chaos.B4);
  Obs.Trace.to_jsonl sink

(* Lines of [jsonl] that contain [needle]. *)
let count_lines jsonl needle =
  let n = String.length needle in
  List.length
    (List.filter
       (fun line ->
         let rec scan i =
           i + n <= String.length line && (String.sub line i n = needle || scan (i + 1))
         in
         scan 0)
       (String.split_on_char '\n' jsonl))

let test_data_trace_digest () =
  let jsonl = data_trace_run () in
  (* 1280 frames, 315 of them probes injected by hosts *)
  Alcotest.(check int) "pipeline.process spans" 1280
    (count_lines jsonl "\"pipeline.process\"");
  Alcotest.(check int) "host-injected frames" 315 (count_lines jsonl "\"in_port\":1001");
  Alcotest.(check int) "data-frame trace JSONL digest" 0x36bc9005 (djb2 jsonl)

(* --- the scale engine ----------------------------------------------- *)

let small_workload =
  { Harness.Scale.default_workload with
    Harness.Run.updates = 120; flows = 30; probe = Harness.Run.Every_bursts 10 }

let test_scale_runs () =
  let r = Harness.Run.run ~seed:11 small_workload (Topo.Topologies.attmpls ()) in
  Alcotest.(check int) "all updates pushed" 120 r.r_pushed;
  Alcotest.(check bool) "most updates completed (rest overtaken by skip-ahead)" true
    (r.r_completed > 85);
  Alcotest.(check int) "no invariant violations" 0 (List.length r.r_violations);
  Alcotest.(check bool) "probes ran" true (r.r_probes > 0);
  Alcotest.(check bool) "percentiles ordered" true (r.r_p50_ms <= r.r_p99_ms)

let test_scale_deterministic () =
  let run () = Harness.Run.run ~seed:11 small_workload (Topo.Topologies.chinanet ()) in
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
    Alcotest.test_case "heap schedules reach grow and compact" `Quick test_schedule_reach;
    QCheck_alcotest.to_alcotest prop_deep_hold;
    Alcotest.test_case "hold schedules reach depth 512" `Quick test_hold_depth;
    QCheck_alcotest.to_alcotest prop_control_codec_equiv;
    QCheck_alcotest.to_alcotest prop_data_codec_equiv;
    QCheck_alcotest.to_alcotest prop_decode_equiv_random_bytes;
    QCheck_alcotest.to_alcotest prop_data_field_accessors;
    QCheck_alcotest.to_alcotest prop_data_readers_and_forward_copy;
    QCheck_alcotest.to_alcotest prop_classify_equiv;
    Alcotest.test_case "chaos delivery hashes pinned" `Slow test_chaos_pins;
    Alcotest.test_case "mc fingerprints pinned" `Quick test_mc_pins;
    Alcotest.test_case "trace digest pinned" `Quick test_trace_digest;
    Alcotest.test_case "data-frame trace digest pinned" `Quick test_data_trace_digest;
    Alcotest.test_case "scale run completes clean" `Quick test_scale_runs;
    Alcotest.test_case "scale run is deterministic" `Quick test_scale_deterministic;
    Alcotest.test_case "world builds with declared flows" `Quick test_world_flows;
  ]
