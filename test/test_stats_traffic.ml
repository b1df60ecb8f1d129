(* Tests for the statistics toolkit and the gravity traffic model. *)

let test_mean_stddev () =
  Alcotest.(check (float 0.001)) "mean" 3.0 (Harness.Stats.mean [ 1.0; 3.0; 5.0 ]);
  Alcotest.(check (float 0.001)) "stddev" 2.0 (Harness.Stats.stddev [ 1.0; 3.0; 5.0 ]);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Harness.Stats.mean []))

let test_percentiles () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  Alcotest.(check (float 0.001)) "min" 10.0 (Harness.Stats.percentile 0.0 xs);
  Alcotest.(check (float 0.001)) "max" 40.0 (Harness.Stats.percentile 100.0 xs);
  Alcotest.(check (float 0.001)) "median interpolates" 25.0 (Harness.Stats.median xs);
  Alcotest.(check (float 0.001)) "p25" 17.5 (Harness.Stats.percentile 25.0 xs)

let test_empty_and_singleton () =
  (* Order statistics on an empty sample raise instead of returning nan. *)
  List.iter
    (fun f ->
      match f [] with
      | (_ : float) -> Alcotest.fail "empty sample did not raise"
      | exception Invalid_argument _ -> ())
    [ Harness.Stats.percentile 50.0; Harness.Stats.minimum; Harness.Stats.maximum ];
  Alcotest.(check (option (float 0.0))) "percentile_opt empty" None
    (Harness.Stats.percentile_opt 50.0 []);
  Alcotest.(check (option (float 0.0))) "minimum_opt empty" None
    (Harness.Stats.minimum_opt []);
  Alcotest.(check (option (float 0.0))) "maximum_opt empty" None
    (Harness.Stats.maximum_opt []);
  (* Singletons: every percentile is the sample itself. *)
  Alcotest.(check (float 0.0)) "singleton p0" 4.0 (Harness.Stats.percentile 0.0 [ 4.0 ]);
  Alcotest.(check (float 0.0)) "singleton p50" 4.0 (Harness.Stats.percentile 50.0 [ 4.0 ]);
  Alcotest.(check (float 0.0)) "singleton p100" 4.0
    (Harness.Stats.percentile 100.0 [ 4.0 ]);
  Alcotest.(check (float 0.0)) "singleton min" 4.0 (Harness.Stats.minimum [ 4.0 ]);
  Alcotest.(check (float 0.0)) "singleton max" 4.0 (Harness.Stats.maximum [ 4.0 ]);
  Alcotest.(check (option (float 0.0))) "singleton opt" (Some 4.0)
    (Harness.Stats.maximum_opt [ 4.0 ]);
  (* summary must not crash on an empty series *)
  Alcotest.(check bool) "summary empty" true
    (String.length (Harness.Stats.summary "none" []) > 0)

let test_cdf () =
  let cdf = Harness.Stats.cdf [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (list (pair (float 0.001) (float 0.001)))) "cdf"
    [ (1.0, 1.0 /. 3.0); (2.0, 2.0 /. 3.0); (3.0, 1.0) ]
    cdf

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 20) (float_bound_exclusive 100.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Harness.Stats.percentile lo xs <= Harness.Stats.percentile hi xs +. 1e-9)

(* --- traffic --- *)

let test_workload_properties () =
  let topo = Topo.Topologies.b4 () in
  let rng = Random.State.make [| 5 |] in
  let flows = Topo.Traffic.multi_flow_workload rng topo.Topo.Topologies.graph in
  Alcotest.(check bool) "nonempty" true (flows <> []);
  List.iter
    (fun (f : Topo.Traffic.flow) ->
      Alcotest.(check bool) "positive size" true (f.size > 0.0);
      Alcotest.(check bool) "src<>dst" true (f.src <> f.dst);
      Alcotest.(check bool) "old path valid" true
        (Graph_oracle.path_is_valid topo.Topo.Topologies.graph f.old_path);
      Alcotest.(check bool) "new path valid" true
        (Graph_oracle.path_is_valid topo.Topo.Topologies.graph f.new_path);
      Alcotest.(check int) "old starts at src" f.src (List.hd f.old_path);
      Alcotest.(check int) "new ends at dst" f.dst
        (List.nth f.new_path (List.length f.new_path - 1)))
    flows;
  (* distinct flow ids (register slots) *)
  let ids = List.map (fun (f : Topo.Traffic.flow) -> f.flow_id) flows in
  Alcotest.(check int) "distinct ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_workload_feasible () =
  List.iter
    (fun topo ->
      let rng = Random.State.make [| 9 |] in
      let flows = Topo.Traffic.multi_flow_workload rng topo.Topo.Topologies.graph in
      Alcotest.(check bool)
        (topo.Topo.Topologies.name ^ " old feasible")
        true
        (Topo.Traffic.feasible topo.Topo.Topologies.graph flows ~use_new:false);
      Alcotest.(check bool)
        (topo.Topo.Topologies.name ^ " new feasible")
        true
        (Topo.Traffic.feasible topo.Topo.Topologies.graph flows ~use_new:true))
    [ Topo.Topologies.b4 (); Topo.Topologies.internet2 (); Topo.Topologies.fat_tree () ]

let test_tighten_keeps_feasibility () =
  let topo = Topo.Topologies.internet2 () in
  let rng = Random.State.make [| 11 |] in
  let flows = Topo.Traffic.multi_flow_workload rng topo.Topo.Topologies.graph in
  Topo.Traffic.tighten_capacities topo.Topo.Topologies.graph flows ~headroom:1.2;
  Alcotest.(check bool) "old still feasible" true
    (Topo.Traffic.feasible topo.Topo.Topologies.graph flows ~use_new:false);
  Alcotest.(check bool) "new still feasible" true
    (Topo.Traffic.feasible topo.Topo.Topologies.graph flows ~use_new:true)

let test_transition_schedulable_simple () =
  (* A single flow moving to a disjoint path is always schedulable. *)
  let g = Topo.Graph.create 4 in
  Topo.Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:1.0;
  Topo.Graph.add_edge g ~u:1 ~v:3 ~latency_ms:1.0 ~capacity:1.0;
  Topo.Graph.add_edge g ~u:0 ~v:2 ~latency_ms:1.0 ~capacity:1.0;
  Topo.Graph.add_edge g ~u:2 ~v:3 ~latency_ms:1.0 ~capacity:1.0;
  let flow =
    { Topo.Traffic.flow_id = 1; src = 0; dst = 3; size = 1.0; old_path = [ 0; 1; 3 ];
      new_path = [ 0; 2; 3 ] }
  in
  Alcotest.(check bool) "schedulable" true (Topo.Traffic.transition_schedulable g [ flow ])

let test_transition_deadlock_detected () =
  (* Two flows that must swap two links of exactly their size: no
     one-at-a-time order works. *)
  let g = Topo.Graph.create 4 in
  Topo.Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:1.0;
  Topo.Graph.add_edge g ~u:1 ~v:3 ~latency_ms:1.0 ~capacity:1.0;
  Topo.Graph.add_edge g ~u:0 ~v:2 ~latency_ms:1.0 ~capacity:1.0;
  Topo.Graph.add_edge g ~u:2 ~v:3 ~latency_ms:1.0 ~capacity:1.0;
  let fa =
    { Topo.Traffic.flow_id = 1; src = 0; dst = 3; size = 1.0; old_path = [ 0; 1; 3 ];
      new_path = [ 0; 2; 3 ] }
  in
  let fb =
    { Topo.Traffic.flow_id = 2; src = 0; dst = 3; size = 1.0; old_path = [ 0; 2; 3 ];
      new_path = [ 0; 1; 3 ] }
  in
  Alcotest.(check bool) "swap deadlock detected" false
    (Topo.Traffic.transition_schedulable g [ fa; fb ]);
  (* With twice the capacity the swap is schedulable. *)
  Topo.Graph.set_capacity g 0 1 2.0;
  Topo.Graph.set_capacity g 1 3 2.0;
  Topo.Graph.set_capacity g 0 2 2.0;
  Topo.Graph.set_capacity g 2 3 2.0;
  Alcotest.(check bool) "with slack schedulable" true
    (Topo.Traffic.transition_schedulable g [ fa; fb ])

let test_flow_id_stable () =
  let a = Topo.Traffic.flow_id_of_pair ~src:3 ~dst:9 in
  let b = Topo.Traffic.flow_id_of_pair ~src:3 ~dst:9 in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.(check bool) "in the flow space" true (a >= 0 && a < P4update.Wire.flow_space)

let suite =
  [
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "empty and singleton samples" `Quick test_empty_and_singleton;
    Alcotest.test_case "cdf" `Quick test_cdf;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    Alcotest.test_case "workload properties" `Quick test_workload_properties;
    Alcotest.test_case "workload feasible" `Quick test_workload_feasible;
    Alcotest.test_case "tighten keeps feasibility" `Quick test_tighten_keeps_feasibility;
    Alcotest.test_case "transition schedulable (simple)" `Quick test_transition_schedulable_simple;
    Alcotest.test_case "transition deadlock detected" `Quick test_transition_deadlock_detected;
    Alcotest.test_case "flow id stable" `Quick test_flow_id_stable;
  ]
