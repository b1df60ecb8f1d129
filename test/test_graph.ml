(* Unit and property tests for the graph substrate. *)

module Graph = Topo.Graph

let diamond () =
  (* 0 - 1 - 3 with a slower 0 - 2 - 3 alternative. *)
  let g = Graph.create 4 in
  Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:10.0;
  Graph.add_edge g ~u:1 ~v:3 ~latency_ms:1.0 ~capacity:10.0;
  Graph.add_edge g ~u:0 ~v:2 ~latency_ms:2.0 ~capacity:10.0;
  Graph.add_edge g ~u:2 ~v:3 ~latency_ms:2.0 ~capacity:10.0;
  g

let test_basic_structure () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check bool) "edge exists" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "edge symmetric" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no edge" false (Graph.has_edge g 0 3);
  Alcotest.(check bool) "out-of-range ids" false
    (Graph.has_edge g (-1) 0 || Graph.has_edge g 0 4 || Graph.has_edge g 99 0);
  Alcotest.(check (float 0.001)) "latency" 2.0 (Graph.latency g 2 3);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_rejects_invalid_edges () =
  let g = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> Graph.add_edge g ~u:1 ~v:1 ~latency_ms:1.0 ~capacity:1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:1.0)

let test_rejects_non_finite_edges () =
  (* Every comparison with nan is false, so a plain [latency < 0] guard
     lets nan through; infinity is finite-checked the same way. *)
  let g = Graph.create 2 in
  List.iter
    (fun x ->
      Alcotest.check_raises "latency"
        (Invalid_argument "Graph.add_edge: negative or non-finite latency")
        (fun () -> Graph.add_edge g ~u:0 ~v:1 ~latency_ms:x ~capacity:1.0);
      Alcotest.check_raises "capacity"
        (Invalid_argument "Graph.add_edge: non-positive or non-finite capacity")
        (fun () -> Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:x))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check int) "nothing inserted" 0 (Graph.edge_count g);
  Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:1.0;
  List.iter
    (fun x ->
      Alcotest.check_raises "override"
        (Invalid_argument "Graph.set_capacity: non-positive or non-finite capacity")
        (fun () -> Graph.set_capacity g 0 1 x))
    [ Float.nan; Float.infinity ]

let test_shortest_path () =
  let g = diamond () in
  Alcotest.(check (option (list int))) "fast branch" (Some [ 0; 1; 3 ])
    (Graph.shortest_path g ~src:0 ~dst:3);
  Alcotest.(check (option (list int))) "self" (Some [ 2 ]) (Graph.shortest_path g ~src:2 ~dst:2)

let test_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:1.0;
  Alcotest.(check (option (list int))) "unreachable" None (Graph.shortest_path g ~src:0 ~dst:2);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_k_shortest () =
  let g = diamond () in
  let paths = Graph.k_shortest_paths g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "two distinct paths" 2 (List.length paths);
  Alcotest.(check (list (list int))) "ordered by latency" [ [ 0; 1; 3 ]; [ 0; 2; 3 ] ] paths

let test_k_shortest_on_wans () =
  List.iter
    (fun topo ->
      let g = topo.Topo.Topologies.graph in
      let paths = Graph.k_shortest_paths g ~src:0 ~dst:(Graph.node_count g - 1) ~k:4 in
      Alcotest.(check bool)
        (topo.Topo.Topologies.name ^ ": at least 2 paths")
        true
        (List.length paths >= 2);
      (* All paths valid, simple and strictly sorted by latency. *)
      List.iter
        (fun p -> Alcotest.(check bool) "valid path" true (Graph_oracle.path_is_valid g p))
        paths;
      let costs = List.map (Graph.path_latency g) paths in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "sorted" true (sorted costs);
      let distinct = List.sort_uniq compare paths in
      Alcotest.(check int) "distinct" (List.length paths) (List.length distinct))
    [ Topo.Topologies.b4 (); Topo.Topologies.internet2 () ]

let test_centroid_is_valid_node () =
  List.iter
    (fun topo ->
      let g = topo.Topo.Topologies.graph in
      let c = Graph.centroid g in
      Alcotest.(check bool) "in range" true (c >= 0 && c < Graph.node_count g))
    [ Topo.Topologies.b4 (); Topo.Topologies.internet2 (); Topo.Topologies.fig1 () ]

let test_set_capacity () =
  let g = diamond () in
  Graph.set_capacity g 0 1 42.0;
  Alcotest.(check (float 0.001)) "override" 42.0 (Graph.capacity g 0 1);
  Alcotest.(check (float 0.001)) "symmetric" 42.0 (Graph.capacity g 1 0);
  Alcotest.(check (float 0.001)) "others untouched" 10.0 (Graph.capacity g 0 2)

(* Random connected graph generator for property tests. *)
let random_graph_gen =
  QCheck.Gen.(
    sized_size (int_range 4 12) (fun n ->
        let* extra = int_bound (n * 2) in
        let* seed = int_bound 1_000_000 in
        return (n, extra, seed)))

let build_random (n, extra, seed) =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create n in
  (* Random spanning tree first, then extra chords. *)
  for v = 1 to n - 1 do
    let u = Random.State.int rng v in
    Graph.add_edge g ~u ~v ~latency_ms:(1.0 +. Random.State.float rng 9.0) ~capacity:10.0
  done;
  for _ = 1 to extra do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.has_edge g u v) then
      Graph.add_edge g ~u ~v ~latency_ms:(1.0 +. Random.State.float rng 9.0) ~capacity:10.0
  done;
  g

let random_graph_arb = QCheck.make ~print:(fun (n, e, s) -> Printf.sprintf "(n=%d,e=%d,seed=%d)" n e s) random_graph_gen

let prop_shortest_path_valid =
  QCheck.Test.make ~name:"shortest paths are valid and minimal vs BFS reachability" ~count:100
    random_graph_arb
    (fun spec ->
      let g = build_random spec in
      let n = Graph.node_count g in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match Graph.shortest_path g ~src ~dst with
          | Some p ->
            if not (Graph_oracle.path_is_valid g p) then ok := false;
            if List.hd p <> src then ok := false;
            if List.nth p (List.length p - 1) <> dst then ok := false
          | None -> if Graph.is_connected g then ok := false
        done
      done;
      !ok)

let prop_yen_paths_simple_and_sorted =
  QCheck.Test.make ~name:"yen paths are simple, distinct and sorted" ~count:60 random_graph_arb
    (fun spec ->
      let g = build_random spec in
      let n = Graph.node_count g in
      let paths = Graph.k_shortest_paths g ~src:0 ~dst:(n - 1) ~k:4 in
      let costs = List.map (Graph.path_latency g) paths in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      List.for_all (Graph_oracle.path_is_valid g) paths
      && sorted costs
      && List.length (List.sort_uniq compare paths) = List.length paths)

let prop_first_yen_is_shortest =
  QCheck.Test.make ~name:"first yen path equals dijkstra" ~count:60 random_graph_arb
    (fun spec ->
      let g = build_random spec in
      let n = Graph.node_count g in
      match (Graph.k_shortest_paths g ~src:0 ~dst:(n - 1) ~k:2, Graph.shortest_path g ~src:0 ~dst:(n - 1)) with
      | first :: _, Some sp ->
        Graph.path_latency g first = Graph.path_latency g sp
      | [], None -> true
      | _ -> false)

(* The centroid and the controller's Geo latencies as they were computed
   before one full Dijkstra per source replaced them: the eccentricity
   sums [path_latency] along each [shortest_path]. *)
let centroid_oracle g =
  let n = Graph.node_count g in
  let eccentricity src =
    let rec worst acc dst =
      if dst >= n then acc
      else
        let acc =
          if dst = src then acc
          else
            match Graph.shortest_path g ~src ~dst with
            | None -> infinity
            | Some p -> Float.max acc (Graph.path_latency g p)
        in
        worst acc (dst + 1)
    in
    worst 0.0 0
  in
  let rec best i best_node best_ecc =
    if i >= n then best_node
    else
      let e = eccentricity i in
      if e < best_ecc then best (i + 1) i e else best (i + 1) best_node best_ecc
  in
  best 1 0 (eccentricity 0)

(* Random graphs of 1-14 nodes whose latencies come from five values
   that tie often and whose sums round differently by order (0.1 + 0.2
   is not 0.3); one graph in six is left disconnected. *)
let tied_graph seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 14 in
  let g = Graph.create n in
  let lats = [| 0.1; 0.2; 0.3; 0.7; 1.0 |] in
  let lat () = lats.(Random.State.int rng (Array.length lats)) in
  let connected = Random.State.int rng 6 > 0 in
  for v = 1 to n - 1 do
    if connected || Random.State.bool rng then
      Graph.add_edge g ~u:(Random.State.int rng v) ~v ~latency_ms:(lat ()) ~capacity:10.0
  done;
  for _ = 1 to Random.State.int rng (2 * n) do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.has_edge g u v) then
      Graph.add_edge g ~u ~v ~latency_ms:(lat ()) ~capacity:10.0
  done;
  g

let prop_centroid_matches_oracle =
  QCheck.Test.make ~name:"centroid and controller latencies equal per-pair Dijkstra" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = tied_graph seed in
      let controller = Graph.centroid g in
      controller = centroid_oracle g
      && ((not (Graph.is_connected g))
          ||
          let topo =
            {
              Topo.Topologies.name = "tied";
              kind = Topo.Topologies.Wan;
              graph = g;
              node_names = Array.init (Graph.node_count g) string_of_int;
              controller;
            }
          in
          let net = Netsim.create (Dessim.Sim.create ()) topo in
          List.for_all
            (fun node ->
              let expected =
                if node = controller then 0.05
                else
                  Graph.path_latency g
                    (Option.get (Graph.shortest_path g ~src:controller ~dst:node))
              in
              Int64.equal (Int64.bits_of_float expected)
                (Int64.bits_of_float (Netsim.control_latency_of net ~node)))
            (List.init (Graph.node_count g) Fun.id)))


(* Random graphs of 1-12 nodes with latencies of 1-3 ms, so that equal
   latencies and equal hop counts tie often, under random node and edge
   masks; one graph in six may be disconnected and one in four has no
   masks. *)
let masked_graph seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 12 in
  let g = Graph.create n in
  let lat () = float_of_int (1 + Random.State.int rng 3) in
  let connected = Random.State.int rng 6 > 0 in
  for v = 1 to n - 1 do
    if connected || Random.State.bool rng then
      Graph.add_edge g ~u:(Random.State.int rng v) ~v ~latency_ms:(lat ()) ~capacity:10.0
  done;
  for _ = 1 to Random.State.int rng (2 * n) do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.has_edge g u v) then
      Graph.add_edge g ~u ~v ~latency_ms:(lat ()) ~capacity:10.0
  done;
  let masked = Random.State.int rng 4 > 0 in
  let node_down = Array.init n (fun _ -> masked && Random.State.int rng 6 = 0) in
  let edge_down = Array.init (n * n) (fun _ -> masked && Random.State.int rng 5 = 0) in
  let node_ok v = not node_down.(v) in
  let edge_ok u v = not edge_down.((min u v * n) + max u v) in
  (g, masked, node_ok, edge_ok)

let prop_search_matches_oracle =
  QCheck.Test.make ~name:"one search equals the four-search oracle" ~count:500
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g, masked, node_ok, edge_ok = masked_graph seed in
      let n = Graph.node_count g in
      let nodes = List.init n Fun.id in
      let pair_ok (src, dst) =
        let k = 1 + (((src * n) + dst) mod 6) in
        Graph.shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok
        = Graph_oracle.shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok
        && Graph.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok
           = Graph_oracle.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok
        && (masked
            || Graph.shortest_path g ~src ~dst
               = Graph_oracle.shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok
               && Graph.k_shortest_paths g ~src ~dst ~k
                  = Graph_oracle.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok)
      in
      Graph.centroid g = Graph_oracle.centroid g
      && Graph.is_connected g = Graph_oracle.is_connected g
      && List.for_all
           (fun src ->
             Graph.distances_avoiding g ~src ~node_ok ~edge_ok
             = Graph_oracle.distances_avoiding g ~src ~node_ok ~edge_ok
             && List.for_all (fun dst -> pair_ok (src, dst)) nodes)
           nodes)

(* A mask that runs its own queries on the same graph: each query owns
   its workspace, so the nested ones neither see nor move the outer
   one's labels, and both get the answers they get alone.  An array
   [distances_avoiding] returned is the caller's to mutate. *)
let test_nested_queries () =
  for seed = 1 to 200 do
    let g, _, node_ok, edge_ok = masked_graph seed in
    let n = Graph.node_count g in
    let alone_path v = Graph.shortest_path g ~src:v ~dst:(n - 1) in
    let alone_dist v = Graph.distances_avoiding g ~src:v ~node_ok ~edge_ok in
    let paths = Array.init n alone_path and dists = Array.init n alone_dist in
    let nested_ok = ref true in
    let nested_node_ok v =
      nested_ok := !nested_ok && alone_path v = paths.(v) && alone_dist v = dists.(v);
      node_ok v
    in
    let nested_edge_ok u v =
      nested_ok := !nested_ok && alone_path u = paths.(u);
      edge_ok u v
    in
    for src = 0 to n - 1 do
      let dst = (src + seed) mod n and k = 1 + (seed mod 6) in
      let name what = Printf.sprintf "seed %d: %s %d->%d" seed what src dst in
      Alcotest.(check (option (list int)))
        (name "shortest path") (Graph.shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok)
        (Graph.shortest_path_avoiding g ~src ~dst ~node_ok:nested_node_ok ~edge_ok:nested_edge_ok);
      Alcotest.(check (list (list int)))
        (name "yen") (Graph.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok)
        (Graph.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok:nested_node_ok
           ~edge_ok:nested_edge_ok);
      Alcotest.(check (array (float 0.0)))
        (name "distances") dists.(src)
        (Graph.distances_avoiding g ~src ~node_ok:nested_node_ok ~edge_ok:nested_edge_ok);
      Array.fill (alone_dist src) 0 n (-1.0)
    done;
    Alcotest.(check bool) (Printf.sprintf "seed %d: nested answers" seed) true !nested_ok;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: a mutated answer moves no later query" seed)
      true
      (Array.for_all Fun.id (Array.init n (fun v -> alone_dist v = dists.(v))))
  done

(* Minor words per [Run.alt_paths] (Yen, k = 3, the path set every
   perfbench flow rotates over), averaged over every ordered pair of
   AttMpls.  It costs 531 words a call: one workspace, the paths and the
   candidates.  The budget leaves a third as much again (3,885 when each
   spur scanned its own fresh arrays and candidates were ranked and
   deduplicated by polymorphic comparison). *)
let alt_paths_word_budget = 708.0

let test_alt_paths_allocation () =
  let g = (Topo.Topologies.attmpls ()).Topo.Topologies.graph in
  let n = Graph.node_count g in
  let pass () =
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then ignore (Harness.Run.alt_paths g ~src ~dst)
      done
    done
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = (Gc.minor_words () -. before) /. float_of_int (n * (n - 1)) in
  if words > alt_paths_word_budget then
    Alcotest.failf "Run.alt_paths allocates %.0f minor words a call (budget %.0f)" words
      alt_paths_word_budget

let suite =
  [
    Alcotest.test_case "basic structure" `Quick test_basic_structure;
    Alcotest.test_case "invalid edges rejected" `Quick test_rejects_invalid_edges;
    Alcotest.test_case "non-finite latency and capacity rejected" `Quick
      test_rejects_non_finite_edges;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "unreachable destination" `Quick test_unreachable;
    Alcotest.test_case "k-shortest on diamond" `Quick test_k_shortest;
    Alcotest.test_case "k-shortest on WANs" `Quick test_k_shortest_on_wans;
    Alcotest.test_case "centroid valid" `Quick test_centroid_is_valid_node;
    Alcotest.test_case "capacity override" `Quick test_set_capacity;
    QCheck_alcotest.to_alcotest prop_shortest_path_valid;
    QCheck_alcotest.to_alcotest prop_yen_paths_simple_and_sorted;
    QCheck_alcotest.to_alcotest prop_first_yen_is_shortest;
    QCheck_alcotest.to_alcotest prop_centroid_matches_oracle;
    QCheck_alcotest.to_alcotest prop_search_matches_oracle;
    Alcotest.test_case "nested queries" `Quick test_nested_queries;
    Alcotest.test_case "alt_paths allocation" `Quick test_alt_paths_allocation;
  ]
