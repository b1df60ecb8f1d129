(* Topology catalogue invariants: the node/edge counts of Fig. 8, the
   fig. 1 / fig. 2 scenario wiring, the fat-tree structure, and the
   geo-latency model. *)

module T = Topo.Topologies
module G = Topo.Graph

let check_counts name topo ~nodes ~edges =
  Alcotest.(check int) (name ^ " nodes") nodes (G.node_count topo.T.graph);
  Alcotest.(check int) (name ^ " edges") edges (G.edge_count topo.T.graph);
  Alcotest.(check bool) (name ^ " connected") true (G.is_connected topo.T.graph)

(* Counts from the Fig. 8 annotations of the paper. *)
let test_fig8_counts () =
  check_counts "b4" (T.b4 ()) ~nodes:12 ~edges:19;
  check_counts "internet2" (T.internet2 ()) ~nodes:16 ~edges:26;
  check_counts "attmpls" (T.attmpls ()) ~nodes:25 ~edges:56;
  check_counts "chinanet" (T.chinanet ()) ~nodes:38 ~edges:62

let test_fig1_paths_exist () =
  let topo = T.fig1 () in
  let valid = Graph_oracle.path_is_valid topo.T.graph in
  Alcotest.(check bool) "old path valid" true (valid T.fig1_old_path);
  Alcotest.(check bool) "new path valid" true (valid T.fig1_new_path);
  (* homogeneous 20 ms links (§9.1) *)
  List.iter
    (fun e -> Alcotest.(check (float 0.001)) "20 ms" 20.0 e.G.latency_ms)
    (G.edges topo.T.graph)

let test_fig2_configs_valid () =
  let topo = T.fig2 () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "config valid" true (Graph_oracle.path_is_valid topo.T.graph p);
      Alcotest.(check int) "starts at v0" 0 (List.hd p);
      Alcotest.(check int) "ends at v4" 4 (List.nth p (List.length p - 1)))
    [ T.fig2_config_a; T.fig2_config_b; T.fig2_config_c ]

let test_fat_tree_structure () =
  let topo = T.fat_tree () in
  (* K=4: 4 cores + 8 aggregation + 8 edge switches; agg-core 16 links +
     edge-agg 16 links. *)
  check_counts "fat-tree" topo ~nodes:20 ~edges:32;
  (* every edge switch reaches every other edge switch *)
  let g = topo.T.graph in
  Alcotest.(check bool) "edge-to-edge path exists" true
    (G.shortest_path g ~src:12 ~dst:19 <> None)

let test_fat_tree_rejects_odd_k () =
  Alcotest.check_raises "odd k" (Invalid_argument "Topologies.fat_tree: k must be even and >= 2")
    (fun () -> ignore (T.fat_tree ~k:3 ()))

let test_geo_latency () =
  (* New York - Los Angeles is about 3940 km: at 200 km/ms that is about
     19.7 ms one way. *)
  let ny = (40.71, -74.01) and la = (34.05, -118.24) in
  let km = T.haversine_km ny la in
  Alcotest.(check bool) "distance plausible" true (km > 3800.0 && km < 4050.0);
  let ms = T.geo_latency_ms ny la in
  Alcotest.(check bool) "latency plausible" true (ms > 19.0 && ms < 20.5);
  Alcotest.(check (float 1e-9)) "zero distance" 0.0 (T.haversine_km ny ny)

let test_wan_latencies_positive () =
  List.iter
    (fun topo ->
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %d-%d latency positive" topo.T.name e.G.u e.G.v)
            true (e.G.latency_ms > 0.0))
        (G.edges topo.T.graph))
    (T.fig8_set ())

let test_controller_at_centroid () =
  List.iter
    (fun topo ->
      Alcotest.(check int)
        (topo.T.name ^ " controller is the centroid")
        (G.centroid topo.T.graph) topo.T.controller)
    [ T.b4 (); T.internet2 () ]

let suite =
  [
    Alcotest.test_case "fig. 8 node/edge counts" `Quick test_fig8_counts;
    Alcotest.test_case "fig. 1 paths valid, 20 ms links" `Quick test_fig1_paths_exist;
    Alcotest.test_case "fig. 2 configurations valid" `Quick test_fig2_configs_valid;
    Alcotest.test_case "fat-tree K=4 structure" `Quick test_fat_tree_structure;
    Alcotest.test_case "fat-tree rejects odd k" `Quick test_fat_tree_rejects_odd_k;
    Alcotest.test_case "geo latency model" `Quick test_geo_latency;
    Alcotest.test_case "WAN latencies positive" `Quick test_wan_latencies_positive;
    Alcotest.test_case "controller at centroid" `Quick test_controller_at_centroid;
  ]
