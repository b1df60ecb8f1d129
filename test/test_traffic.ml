(* Traffic auditor (DESIGN §10) and PR-5 satellite regressions: monotonic
   wall-clock stats, >=2-path admission + burst
   under-fill accounting, percentile argument validation, and the
   seeded-determinism / zero-violation guarantees of the probe engine,
   and its allocation-free probe path: the classifier against the list
   oracle in classify_oracle.ml, the flight window and the version
   history.  Also the single-controller fat-tree bursts: a 40-flow audited
   burst on k=4, the pinned 150-flow audit on K=16 and a stable
   controller fingerprint. *)

module Sim = Dessim.Sim
module Graph = Topo.Graph
module Topologies = Topo.Topologies
module Run = Harness.Run
module Scale = Harness.Scale
module Traffic = Harness.Traffic
module Stats = Harness.Stats
module World = Harness.World

let small_scale =
  { Scale.default_workload with
    Run.updates = 120; flows = 30;
    audit = Some { Traffic.default_workload with tw_stop_ms = 250.0 } }

let run_small seed =
  let r = Run.run ~seed small_scale (Topologies.attmpls ()) in
  (r, Option.get r.r_traffic)

(* Satellite 1: kernel run stats measure monotonic wall time.  Under the
   old [Sys.time] (CPU time) implementation a sleeping run was billed as
   ~0 seconds. *)
let test_wall_clock () =
  let sim = Sim.create ~seed:1 () in
  Sim.schedule sim ~delay:1.0 (fun () -> Unix.sleepf 0.05);
  ignore (Sim.run sim);
  let st = Sim.stats sim in
  Alcotest.(check bool)
    (Printf.sprintf "st_wall_s=%.4f covers a 50ms sleep" st.Sim.st_wall_s)
    true
    (st.Sim.st_wall_s >= 0.04)

(* Satellite 3: a flow is only admitted with at least two alternative
   paths — on a line there is exactly one path, so no admission. *)
let test_alt_paths_needs_two () =
  let line = Graph.create 3 in
  Graph.add_edge line ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:100.0;
  Graph.add_edge line ~u:1 ~v:2 ~latency_ms:1.0 ~capacity:100.0;
  Alcotest.(check bool)
    "single-path pair rejected" true
    (Scale.alt_paths line ~src:0 ~dst:2 = None);
  let diamond = Graph.create 4 in
  Graph.add_edge diamond ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:100.0;
  Graph.add_edge diamond ~u:1 ~v:3 ~latency_ms:1.0 ~capacity:100.0;
  Graph.add_edge diamond ~u:0 ~v:2 ~latency_ms:1.0 ~capacity:100.0;
  Graph.add_edge diamond ~u:2 ~v:3 ~latency_ms:1.0 ~capacity:100.0;
  match Scale.alt_paths diamond ~src:0 ~dst:3 with
  | None -> Alcotest.fail "diamond pair rejected"
  | Some paths ->
    Alcotest.(check bool) "two alternatives" true (Array.length paths >= 2)

(* Satellite 3: a burst wider than the population is clamped and the
   under-fill is recorded rather than silently shrinking the workload. *)
let test_underfill_recorded () =
  let wl =
    { Scale.default_workload with Run.updates = 16; flows = 2; burst = 8;
      churn = Run.Per_burst 0.0 }
  in
  let r = Run.run ~seed:5 wl (Topologies.attmpls ()) in
  Alcotest.(check bool)
    (Printf.sprintf "under-fill recorded (%d bursts, %d underfilled)" r.r_bursts
       r.r_underfilled)
    true
    (r.r_underfilled > 0)

(* Satellite 4: percentile validates p before looking at the data, so a
   bogus p on an empty series is an error, not a silent [None]. *)
let test_percentile_bounds () =
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile_opt 150.0 []));
  Alcotest.check_raises "p < 0 rejected"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile_opt (-1.0) [ 1.0 ]));
  Alcotest.(check bool) "valid p, empty series" true
    (Stats.percentile_opt 50.0 [] = None);
  Alcotest.(check (option (float 1e-9))) "valid p, one sample" (Some 7.0)
    (Stats.percentile_opt 99.0 [ 7.0 ])

(* Tentpole: same seed => same packet schedule, same trajectories, same
   per-packet outcome digest. *)
let test_deterministic () =
  let _, a = run_small 21 in
  let _, b = run_small 21 in
  Alcotest.(check int) "digest" a.Traffic.ts_digest b.Traffic.ts_digest;
  Alcotest.(check int) "injected" a.Traffic.ts_injected b.Traffic.ts_injected;
  Alcotest.(check int) "delivered" a.Traffic.ts_delivered b.Traffic.ts_delivered;
  Alcotest.(check int) "reordered" a.Traffic.ts_reordered b.Traffic.ts_reordered;
  Alcotest.(check (float 1e-9)) "p99 latency" a.Traffic.ts_p99_ms b.Traffic.ts_p99_ms

(* Tentpole: absent injected faults, probes racing a full update workload
   see zero mixed/loop/blackhole packets, and nothing is lost. *)
let test_zero_violations () =
  let sr, ts = run_small 9 in
  Alcotest.(check bool) "updates actually raced" true (sr.Run.r_pushed > 50);
  Alcotest.(check bool) "enough probes" true (ts.Traffic.ts_injected > 1000);
  Alcotest.(check int) "all delivered" ts.Traffic.ts_injected ts.Traffic.ts_delivered;
  Alcotest.(check int) "no audit violations" 0 (Traffic.violations ts);
  Alcotest.(check int) "scale invariants hold" 0 (List.length sr.Run.r_violations)

(* Chaos integration: traffic is opt-in and rides the degraded run; with
   the fault schedule turned off the audit is clean end to end. *)
let test_chaos_traffic () =
  let faults =
    Harness.Run_config.fault_free { Harness.Run_config.default_faults with window_ms = 1000.0 }
  in
  let workload = { Traffic.default_workload with Traffic.tw_stop_ms = 400.0 } in
  let r =
    Harness.Chaos.run ~traffic:workload ~faults ~horizon_ms:5000.0 ~seed:2 Harness.Chaos.Fig1
  in
  match r.Harness.Chaos.r_traffic with
  | None -> Alcotest.fail "traffic audit missing from report"
  | Some ts ->
    Alcotest.(check bool) "probes injected" true (ts.Traffic.ts_injected > 0);
    Alcotest.(check int) "fault-free audit is clean" 0 (Traffic.violations ts)

(* ---- the classifier ---------------------------------------------- *)

(* One classification input: a flow's version history, the probe's cap,
   destination, egress node and hops (newest first). *)
type case = {
  c_history : Traffic.vrec list;
  c_cap : int;
  c_dst : int;
  c_delivered_at : int;
  c_hops : int list;
}

let print_case c =
  let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  Printf.sprintf "history=%s cap=%d dst=%d delivered_at=%d hops=%s"
    (String.concat " "
       (List.map
          (fun r ->
            Printf.sprintf "{v%d%s %s}" r.Traffic.vr_version
              (if r.Traffic.vr_dl then " dl" else "")
              (String.concat ";"
                 (List.map
                    (fun e -> Printf.sprintf "%d>%d" (e lsr 20) (e land 0xFFFFF))
                    r.Traffic.vr_edges)))
          c.c_history))
    c.c_cap c.c_dst c.c_delivered_at (ints c.c_hops)

(* 1-8 distinct versions over at most 6 nodes with random DL flags; caps
   inside and beyond the version range; 0-12 hops that mostly follow
   some version's edges, so they take legal switchovers, illegal
   downgrades, repeated edges and revisits that leave by another edge;
   undelivered and misdelivered packets. *)
let case_gen : case QCheck.Gen.t =
 fun rs ->
  let int n = Random.State.int rs n in
  let nodes = 2 + int 5 in
  let n_versions = 1 + int 8 in
  let versions =
    List.init 12 (fun v -> (Random.State.bits rs, v))
    |> List.sort compare
    |> List.filteri (fun i _ -> i < n_versions)
    |> List.map snd
  in
  let paths = List.map (fun _ -> List.init (1 + int 7) (fun _ -> int nodes)) versions in
  let history =
    List.map2
      (fun v path ->
        { Traffic.vr_version = v; vr_edges = Traffic.edges_of_path path; vr_dl = int 3 = 0 })
      versions paths
  in
  let succs a =
    List.concat_map
      (fun path ->
        let rec go = function
          | x :: (y :: _ as rest) -> if x = a then y :: go rest else go rest
          | _ -> []
        in
        go path)
      paths
  in
  let rec walk n hops =
    if n = 0 then hops
    else
      let next =
        match succs (List.hd hops) with
        | _ :: _ as s when int 5 > 0 -> List.nth s (int (List.length s))
        | _ -> int nodes
      in
      walk (n - 1) (next :: hops)
  in
  let len = int 13 in
  let hops = if len = 0 then [] else walk (len - 1) [ int nodes ] in
  let dst = match hops with h :: _ when int 4 > 0 -> h | _ -> int nodes in
  let cap = match int 5 with 0 -> max_int | 1 -> -1 | _ -> int 13 in
  let delivered_at = match int 5 with 0 -> -1 | 1 -> int nodes | _ -> dst in
  { c_history = history; c_cap = cap; c_dst = dst; c_delivered_at = delivered_at; c_hops = hops }

let classify_with f c =
  f ~history:c.c_history ~cap:c.c_cap ~dst:c.c_dst ~delivered_at:c.c_delivered_at c.c_hops

let prop_classify_matches_oracle =
  QCheck.Test.make ~name:"allocation-free classifier = list-based oracle" ~count:3000
    (QCheck.make ~print:print_case case_gen)
    (fun c -> classify_with Traffic.classify c = classify_with Classify_oracle.classify c)

(* The random cases reach every outcome, so the property compares more
   than the clean-run [Old_path]/[New_path] branches the pins cover. *)
let test_oracle_cases_cover_outcomes () =
  let rs = Random.State.make [| 22 |] in
  let seen = Array.make 5 0 in
  for _ = 1 to 3000 do
    let c = case_gen rs in
    let cls = classify_with Traffic.classify c in
    if cls <> classify_with Classify_oracle.classify c then
      Alcotest.failf "classifier and oracle disagree on %s" (print_case c);
    let i = match cls with
      | Traffic.Old_path -> 0 | New_path -> 1 | Mixed -> 2 | Loop -> 3 | Blackhole -> 4
    in
    seen.(i) <- seen.(i) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 30 then Alcotest.failf "outcome %d drawn only %d times in 3000 cases" i n)
    seen

let vrec ?(dl = false) version path =
  { Traffic.vr_version = version; vr_edges = Traffic.edges_of_path path; vr_dl = dl }

let outcome =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Traffic.outcome_name o))
    ( = )

(* One fixed example per outcome on Fig. 1's paths (version 1 the old
   path 0-4-2-7, version 2 the new path 0-1-...-7), plus the bottom-up
   revisit the traffic.ml header describes. *)
let test_classify_examples () =
  let old_path = Topologies.fig1_old_path and new_path = Topologies.fig1_new_path in
  let sl = [ vrec 2 new_path; vrec 1 old_path ] in
  let dl = [ vrec ~dl:true 2 new_path; vrec 1 old_path ] in
  let check name expected history ?(cap = 1) ?(delivered_at = 7) hops =
    Alcotest.check outcome name expected
      (Traffic.classify ~history ~cap ~dst:7 ~delivered_at hops);
    Alcotest.check outcome (name ^ " (oracle)") expected
      (Classify_oracle.classify ~history ~cap ~dst:7 ~delivered_at hops)
  in
  check "old path within the cap" Traffic.Old_path sl (List.rev old_path);
  check "new path needs version 2" Traffic.New_path sl (List.rev new_path);
  check "old prefix onto new suffix at node 4" Traffic.New_path sl [ 7; 6; 5; 4; 0 ];
  check "new prefix onto old suffix: SL downgrade" Traffic.Mixed sl ~cap:2 [ 7; 2; 1; 0 ];
  check "the same exit out of a DL version" Traffic.New_path dl [ 7; 2; 1; 0 ];
  check "misdelivered" Traffic.Mixed sl ~delivered_at:2 [ 2; 4; 0 ];
  check "edge 4->2 taken twice" Traffic.Loop sl [ 2; 4; 2; 4; 0 ];
  check "loop wins over a missing delivery" Traffic.Loop sl ~delivered_at:(-1)
    [ 2; 4; 2; 4; 0 ];
  check "never delivered" Traffic.Blackhole sl ~delivered_at:(-1) [ 4; 0 ];
  (* Old 0-1-2-3 (a=1, x=2, b=3), new 0-2-1-3: the packet leaves 1 by
     the old rule, meets 2's new rule and comes back through 1 on the
     new rule, leaving by another edge. *)
  let bottom_up = [ vrec 2 [ 0; 2; 1; 3 ]; vrec 1 [ 0; 1; 2; 3 ] ] in
  Alcotest.check outcome "revisit by another edge" Traffic.New_path
    (Traffic.classify ~history:bottom_up ~cap:1 ~dst:3 ~delivered_at:3 [ 3; 1; 2; 1; 0 ]);
  Alcotest.check outcome "revisit, the other order: downgrade" Traffic.Mixed
    (Traffic.classify ~history:bottom_up ~cap:2 ~dst:3 ~delivered_at:3 [ 3; 2; 1; 2; 0 ])

(* ---- the flight window -------------------------------------------- *)

(* A started auditor on [w] with constant-rate injectors: [(stop_ms -
   now) / gap_ms] probes per flow, rounded down. *)
let probe_auditor w ~gap_ms ~stop_ms =
  let t =
    Traffic.attach
      ~workload:
        { Traffic.default_workload with
          tw_mean_gap_ms = gap_ms; tw_poisson = false; tw_stop_ms = stop_ms }
      w
  in
  Traffic.start t;
  t

(* Fig. 1 with one flow on the old path and a [probe_auditor]. *)
let probe_world ~gap_ms ~stop_ms =
  let w = World.make ~seed:4 (Topologies.fig1 ()) in
  let f = World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topologies.fig1_old_path in
  (w, f.P4update.Controller.flow_id, probe_auditor w ~gap_ms ~stop_ms)

(* Frames no probe may claim, sent while probe 10 is in flight and probes
   0-9 are drained: drained seq 0, seq 100 never injected, probe 10's
   header cut to 12 bytes (seq and flow id intact) and probe 10's header
   under the control etype.  All carry ttl 1, so the next hop sees them
   and drops them. *)
let test_window_ignores_strays () =
  let run ~strays =
    let w, flow_id, t = probe_world ~gap_ms:1.0 ~stop_ms:10.5 in
    ignore (World.run w);
    Alcotest.(check int) "ten probes awaiting drain" 10 (Traffic.in_flight t);
    Traffic.drain t;
    Alcotest.(check int) "none after drain" 0 (Traffic.in_flight t);
    let sim = w.World.sim in
    Traffic.inject_until t ~stop_ms:(Sim.now sim +. 10.5);
    while Traffic.in_flight t = 0 do
      ignore (Sim.step sim)
    done;
    if strays then begin
      let frame ?(tag = 0) seq =
        P4update.Wire.data_to_bytes
          { P4update.Wire.d_flow_id = flow_id; seq; ttl = 1; origin = 0; dst = 7; tag; d_ts = 0 }
      in
      let control = Bytes.extend (frame ~tag:0xFF 10) 0 6 in
      Bytes.set_uint16_be control 4 P4update.Wire.etype_control;
      Alcotest.(check bool) "not a valid control frame either" true
        (P4update.Wire.control_of_bytes control = None);
      let port = Netsim.port_of_neighbor w.World.net ~node:0 ~neighbor:4 in
      List.iter
        (Netsim.transmit w.World.net ~from:0 ~port)
        [ frame 0; frame 100; Bytes.sub (frame 10) 0 12; control ]
    end;
    ignore (World.run w);
    Traffic.finalize t
  in
  let clean = run ~strays:false and noisy = run ~strays:true in
  Alcotest.(check int) "twenty probes" 20 noisy.Traffic.ts_injected;
  Alcotest.(check int) "all on the old path" 20 noisy.Traffic.ts_old_path;
  Alcotest.(check int) "digest as without the strays" clean.Traffic.ts_digest
    noisy.Traffic.ts_digest

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A burst of 5000 probes on [probe_world], run to quiet: the world and
   the number of probes it left in flight. *)
let burst_world () =
  let w, _, t = probe_world ~gap_ms:0.01 ~stop_ms:50.005 in
  ignore (World.run w);
  (w, t, Traffic.in_flight t)

(* More than 4096 probes between two drains, each audited on the old
   path; then a second equal burst reuses the window and the hop arena
   the first one left, so the drains together retain no more than the
   latency buffer's growth: one float per delivered probe, with its
   chunk headers and spine well inside two words. *)
let test_window_grows_and_is_reused () =
  let w, t, n = burst_world () in
  Alcotest.(check bool) (Printf.sprintf "%d probes > 4096" n) true (n > 4096);
  Traffic.drain t;
  Alcotest.(check int) "in_flight after drain" 0 (Traffic.in_flight t);
  let live_before = live_words () in
  Traffic.inject_until t ~stop_ms:(Sim.now w.World.sim +. 50.005);
  ignore (World.run w);
  Alcotest.(check int) "an equal second burst" n (Traffic.in_flight t);
  Traffic.drain t;
  let grown = live_words () - live_before in
  if grown > 2 * n then
    Alcotest.failf "a reused window retained %d words for %d probes (> 2 each)" grown n;
  let s = Traffic.finalize t in
  Alcotest.(check int) "injected" (2 * n) s.Traffic.ts_injected;
  Alcotest.(check int) "every probe audited on the old path" (2 * n) s.Traffic.ts_old_path

(* Live words a probe in flight holds on Fig. 1's four-node path, its
   auditor's window chunks and hop arena amortised: seven one-word
   columns and four one-word hops with their chunk headers and spines,
   about 12, and the budget leaves a third as much again (26 when each
   probe was a record with boxed floats, a cons per hop and a window
   slot).  A first, drained burst grows the world's event queue, so a
   second auditor on the same world is charged only for what it holds
   itself. *)
let words_per_probe_in_flight_budget = 16.0

let test_words_per_probe_in_flight () =
  let w, t, n = burst_world () in
  Traffic.drain t;
  let live_before = live_words () in
  let t' = probe_auditor w ~gap_ms:0.01 ~stop_ms:(Sim.now w.World.sim +. 50.005) in
  ignore (World.run w);
  let grown = live_words () - live_before in
  (* [t'] holds the world: both stay live until here. *)
  Alcotest.(check int) "an equal second burst" n (Traffic.in_flight t');
  let words = float_of_int grown /. float_of_int n in
  if words > words_per_probe_in_flight_budget then
    Alcotest.failf "a probe in flight holds %.1f live words (budget %.0f)" words
      words_per_probe_in_flight_budget

(* ---- the version history ------------------------------------------ *)

let history_versions t ~flow_id =
  List.map (fun r -> r.Traffic.vr_version) (Traffic.history t ~flow_id)

(* N distinct pushes give N + 1 entries; pushing a prepared update
   again adds nothing — also when a stale prepared update lowers the
   flow's version (Fig. 2's pattern). *)
let test_history_idempotent () =
  let w = World.make ~seed:4 (Topologies.fig1 ()) in
  let f = World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topologies.fig1_old_path in
  let flow_id = f.P4update.Controller.flow_id in
  let t = Traffic.attach w in
  let c = w.World.controller in
  for i = 1 to 6 do
    let new_path = if i mod 2 = 1 then Topologies.fig1_new_path else Topologies.fig1_old_path in
    ignore (P4update.Controller.update_flow c ~flow_id ~new_path ());
    ignore (World.run w)
  done;
  Alcotest.(check (list int)) "six pushes, seven entries" [ 7; 6; 5; 4; 3; 2; 1 ]
    (history_versions t ~flow_id);
  let p_low = P4update.Controller.prepare c ~flow_id ~new_path:Topologies.fig1_new_path () in
  P4update.Controller.bump_version c ~flow_id;
  let p_high = P4update.Controller.prepare c ~flow_id ~new_path:Topologies.fig1_old_path () in
  List.iter (P4update.Controller.push c) [ p_high; p_low; p_high; p_low ];
  Alcotest.(check (list int)) "a lowered version is recorded once" [ 8; 9; 7; 6; 5; 4; 3; 2; 1 ]
    (history_versions t ~flow_id)

(* Reported versions only rise through bursts of updates, §11 recovery
   (retransmissions, reroutes and resyncs under control-frame loss) and
   element failures: the case [record_version] serves without a scan. *)
let test_pushed_versions_rise () =
  let w = World.make ~seed:11 (Topologies.b4 ()) in
  let c = w.World.controller and net = w.World.net and sim = w.World.sim in
  P4update.Controller.enable_recovery ~timeout_ms:40.0 c;
  let last = Hashtbl.create 16 and drops = ref 0 and pushes = ref 0 in
  P4update.Controller.on_push c (fun ~flow_id ~version ->
      incr pushes;
      (match Hashtbl.find_opt last flow_id with
       | Some v when version <= v -> incr drops
       | _ -> ());
      Hashtbl.replace last flow_id version);
  let g = Netsim.graph net in
  let flows =
    List.filter_map
      (fun (src, dst) ->
        Option.map
          (fun paths ->
            let f = World.install_flow w ~src ~dst ~size:1 ~path:paths.(0) in
            (f.P4update.Controller.flow_id, paths))
          (Scale.alt_paths g ~src ~dst))
      [ (0, 9); (1, 8); (2, 11); (3, 7); (10, 5); (11, 4) ]
  in
  let t = Traffic.attach w in
  Netsim.set_control_fault net (fun ~dir:_ _ ->
      if Sim.uniform sim ~bound:1.0 < 0.1 then Netsim.Drop else Netsim.Deliver);
  Netsim.fail_link net ~u:4 ~v:7 ~at:60.0;
  Netsim.restore_link net ~u:4 ~v:7 ~at:400.0;
  Netsim.fail_node net ~node:6 ~at:150.0;
  Netsim.restore_node net ~node:6 ~at:500.0;
  for burst = 1 to 20 do
    Sim.schedule sim ~delay:(float_of_int burst *. 30.0) (fun () ->
        let requests =
          List.map (fun (flow_id, paths) -> (flow_id, paths.(burst mod Array.length paths))) flows
        in
        List.iter (P4update.Controller.push c) (P4update.Controller.prepare_batch c requests))
  done;
  ignore (World.run ~until:20_000.0 w);
  let rs = Option.get (P4update.Controller.recovery_stats c) in
  Alcotest.(check bool) "recovery pushed too" true
    (rs.P4update.Controller.reroutes + rs.P4update.Controller.resyncs > 0);
  Alcotest.(check bool) "bursts pushed" true (!pushes >= 20 * List.length flows);
  Alcotest.(check int) "no push repeats or lowers a version" 0 !drops;
  List.iter
    (fun (flow_id, _) ->
      let vs = history_versions t ~flow_id in
      Alcotest.(check (list int)) "history strictly newest first"
        (List.sort_uniq (fun a b -> compare b a) vs) vs)
    flows

(* One audited burst on a fat-tree: every flow has a primary shortest
   path and an alternative avoiding the primary's middle edge, and all
   of them move in one [prepare_batch] while the auditor races probes
   through the update. *)
let fat_tree_specs ?(seed = 0xca11) topo count =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  let rng = Random.State.make [| seed |] in
  let seen = Hashtbl.create 64 in
  let specs = ref [] and made = ref 0 in
  while !made < count do
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.replace seen (src, dst) ();
      match Graph.shortest_path g ~src ~dst with
      | Some primary when List.length primary >= 3 ->
        let mid = List.length primary / 2 in
        let a = List.nth primary (mid - 1) and b = List.nth primary mid in
        let edge_ok u v = not ((u = a && v = b) || (u = b && v = a)) in
        (match
           Graph.shortest_path_avoiding g ~src ~dst ~node_ok:(fun _ -> true) ~edge_ok
         with
        | Some alt when alt <> primary ->
          specs := (src, dst, primary, alt) :: !specs;
          incr made
        | _ -> ())
      | _ -> ()
    end
  done;
  List.rev !specs

let fat_tree_burst ~audit ~topo ~specs ~warm_ms ~stop_ms =
  let w = World.make ~seed:42 topo in
  let c = w.World.controller in
  List.iteri
    (fun i (src, dst, primary, _) ->
      ignore (World.install_flow ~flow_id:i w ~src ~dst ~size:1 ~path:primary))
    specs;
  let requests = List.mapi (fun i (_, _, _, alt) -> (i, alt)) specs in
  let monitor = Harness.Invariants.create w in
  let tr = if audit then Some (Traffic.attach w) else None in
  Option.iter
    (fun tr ->
      Traffic.start tr;
      Traffic.inject_until tr ~stop_ms)
    tr;
  ignore (World.run ~until:warm_ms w);
  let prepared = P4update.Controller.prepare_batch c requests in
  List.iter (P4update.Controller.push c) prepared;
  ignore (World.run w);
  let audited, audit_violations =
    match tr with
    | None -> (0, 0)
    | Some tr ->
      Traffic.drain tr;
      let ts = Traffic.finalize tr in
      (ts.Traffic.ts_injected, Traffic.violations ts)
  in
  Harness.Invariants.check_structural monitor (World.flows w);
  ( w,
    List.length prepared,
    audited,
    audit_violations,
    List.length (Harness.Invariants.violations monitor) )

(* The 40-flow burst on the k=4 fat-tree. *)
let small_fat_tree_burst ~audit =
  let topo = Topologies.fat_tree () in
  fat_tree_burst ~audit ~topo ~specs:(fat_tree_specs topo 40) ~warm_ms:30.0 ~stop_ms:300.0

let test_fat_tree_burst_audited () =
  let _, pushed, _, audit, structural = small_fat_tree_burst ~audit:true in
  Alcotest.(check int) "all updates pushed" 40 pushed;
  Alcotest.(check int) "no per-packet violations" 0 audit;
  Alcotest.(check int) "no structural violations" 0 structural

(* The larger leg, pinned: 150 flows on the K=16 fat-tree. *)
let test_k16_fat_tree_audit_pinned () =
  let topo = Topologies.fat_tree ~k:16 () in
  let specs = fat_tree_specs ~seed:0x5eed topo 150 in
  let _, pushed, audited, audit, structural =
    fat_tree_burst ~audit:true ~topo ~specs ~warm_ms:50.0 ~stop_ms:400.0
  in
  Alcotest.(check int) "updates" 150 pushed;
  Alcotest.(check int) "audited" 23954 audited;
  Alcotest.(check int) "violations" 0 (audit + structural)

(* The controller fingerprint after the 40-flow burst is a pure function
   of the seed. *)
let test_fat_tree_fingerprint_stable () =
  let fp () =
    let w, _, _, _, _ = small_fat_tree_burst ~audit:false in
    P4update.Controller.fingerprint w.World.controller
  in
  Alcotest.(check int) "fingerprint stable run to run" (fp ()) (fp ())

(* A gap that is not positive would re-arm each injector at one instant
   forever; the auditor refuses it before anything is simulated. *)
let test_attach_rejects_gap () =
  List.iter
    (fun (tw_mean_gap_ms, tw_poisson) ->
      let w = World.make ~seed:1 (Topologies.fig1 ()) in
      Alcotest.check_raises
        (Printf.sprintf "gap %g (poisson %b)" tw_mean_gap_ms tw_poisson)
        (Invalid_argument "Traffic.attach: tw_mean_gap_ms must be positive")
        (fun () ->
          ignore
            (Traffic.attach
               ~workload:{ Traffic.default_workload with tw_mean_gap_ms; tw_poisson }
               w)))
    [ (0.0, false); (0.0, true); (-1.0, true); (Float.nan, false) ]

let suite =
  [
    Alcotest.test_case "attach rejects a non-positive gap" `Quick test_attach_rejects_gap;
    Alcotest.test_case "kernel stats use monotonic wall clock" `Quick
      test_wall_clock;
    Alcotest.test_case "admission requires two alternative paths" `Quick
      test_alt_paths_needs_two;
    Alcotest.test_case "burst under-fill is recorded" `Quick
      test_underfill_recorded;
    Alcotest.test_case "percentile validates p first" `Quick
      test_percentile_bounds;
    Alcotest.test_case "probe audit is seed-deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "zero violations absent faults" `Quick
      test_zero_violations;
    Alcotest.test_case "chaos carries an opt-in traffic audit" `Quick
      test_chaos_traffic;
    QCheck_alcotest.to_alcotest prop_classify_matches_oracle;
    Alcotest.test_case "oracle cases reach every outcome" `Quick
      test_oracle_cases_cover_outcomes;
    Alcotest.test_case "one example per outcome" `Quick test_classify_examples;
    Alcotest.test_case "flight window ignores stray frames" `Quick
      test_window_ignores_strays;
    Alcotest.test_case "flight window grows and is reused" `Quick
      test_window_grows_and_is_reused;
    Alcotest.test_case "live words per probe in flight" `Quick
      test_words_per_probe_in_flight;
    Alcotest.test_case "version history is idempotent" `Quick test_history_idempotent;
    Alcotest.test_case "pushed versions only rise" `Quick test_pushed_versions_rise;
    Alcotest.test_case "fat-tree burst audited" `Slow test_fat_tree_burst_audited;
    Alcotest.test_case "K=16 fat-tree audit pinned" `Slow test_k16_fat_tree_audit_pinned;
    Alcotest.test_case "fat-tree fingerprint stable" `Quick
      test_fat_tree_fingerprint_stable;
  ]
