(* Traffic auditor (DESIGN §10) and PR-5 satellite regressions: monotonic
   wall-clock stats, retime_prep purity, >=2-path admission + burst
   under-fill accounting, percentile argument validation, and the
   seeded-determinism / zero-violation guarantees of the probe engine. *)

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
  let r = Run.run small_scale (Harness.Run_config.make ~seed ()) (Topologies.attmpls ()) in
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

(* Satellite 2: the prep-throughput fallback re-times against a throwaway
   clone world; the live controller state is bit-for-bit untouched. *)
let test_retime_prep_pure () =
  let topo = Topologies.fig1 () in
  let w = World.make ~seed:3 topo in
  let f =
    World.install_flow w ~src:(List.hd Topologies.fig1_old_path)
      ~dst:(List.nth Topologies.fig1_old_path
              (List.length Topologies.fig1_old_path - 1))
      ~size:100 ~path:Topologies.fig1_old_path
  in
  let before = P4update.Controller.fingerprint w.World.controller in
  let rate =
    Run.retime_prep w
      [ (f.P4update.Controller.flow_id, Topologies.fig1_new_path) ]
  in
  let after = P4update.Controller.fingerprint w.World.controller in
  Alcotest.(check bool) "throughput measured" true (rate > 0.0);
  Alcotest.(check int) "controller fingerprint unchanged" before after

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
  let cfg = Harness.Run_config.make ~seed:5 () in
  let r = Run.run wl cfg (Topologies.attmpls ()) in
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
  let config =
    { Harness.Chaos.default_config with
      Harness.Chaos.fault_window_ms = 1000.0; horizon_ms = 5000.0;
      data_fault_prob = 0.0; control_fault_prob = 0.0; max_element_failures = 0 }
  in
  let workload = { Traffic.default_workload with Traffic.tw_stop_ms = 400.0 } in
  let r =
    Harness.Chaos.run ~config ~traffic:workload ~scenario:Harness.Chaos.Fig1
      ~seed:2 ()
  in
  match r.Harness.Chaos.r_traffic with
  | None -> Alcotest.fail "traffic audit missing from report"
  | Some ts ->
    Alcotest.(check bool) "probes injected" true (ts.Traffic.ts_injected > 0);
    Alcotest.(check int) "fault-free audit is clean" 0 (Traffic.violations ts)

let suite =
  [
    Alcotest.test_case "kernel stats use monotonic wall clock" `Quick
      test_wall_clock;
    Alcotest.test_case "retime_prep leaves live controller untouched" `Quick
      test_retime_prep_pure;
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
  ]
