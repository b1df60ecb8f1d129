(* Fixed-seed oracle sweep (the [@graph-oracle] alias): every query of
   [Topo.Graph] against the four searches of [Graph_oracle] on 2,000
   random graphs of 1-16 nodes.  Half the graphs draw latencies of 1-3 ms
   (equal latencies and hop counts tie often), half from five values
   whose sums round differently by order (0.1 + 0.2 is not 0.3); one in
   six may be disconnected and three in four carry random node and edge
   masks.  Per graph: the centroid, connectivity, the distances from
   every source, and for every ordered pair the shortest path and Yen's
   paths with k = 1-12.  Prints the first differing query and exits 1. *)

module Graph = Topo.Graph

let graphs = 2_000

let random_graph seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 16 in
  let g = Graph.create n in
  let fractions = [| 0.1; 0.2; 0.3; 0.7; 1.0 |] in
  let lat () =
    if seed mod 2 = 0 then float_of_int (1 + Random.State.int rng 3)
    else fractions.(Random.State.int rng (Array.length fractions))
  in
  let connected = Random.State.int rng 6 > 0 in
  for v = 1 to n - 1 do
    if connected || Random.State.bool rng then
      Graph.add_edge g ~u:(Random.State.int rng v) ~v ~latency_ms:(lat ()) ~capacity:10.0
  done;
  for _ = 1 to Random.State.int rng (3 * n) do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.has_edge g u v) then
      Graph.add_edge g ~u ~v ~latency_ms:(lat ()) ~capacity:10.0
  done;
  let masked = Random.State.int rng 4 > 0 in
  let node_down = Array.init n (fun _ -> masked && Random.State.int rng 8 = 0) in
  let edge_down = Array.init (n * n) (fun _ -> masked && Random.State.int rng 6 = 0) in
  let node_ok v = not node_down.(v) in
  let edge_ok u v = not edge_down.((min u v * n) + max u v) in
  (g, masked, node_ok, edge_ok)

let paths = function
  | None -> "none"
  | Some p -> String.concat "-" (List.map string_of_int p)

let path_list ps = "[" ^ String.concat "; " (List.map (fun p -> paths (Some p)) ps) ^ "]"

(* The first query on which the graph of [seed] and the oracle differ. *)
let first_difference seed =
  let g, masked, node_ok, edge_ok = random_graph seed in
  let n = Graph.node_count g in
  let diff = ref None in
  let check what ok show_lib show_oracle =
    if !diff = None && not ok then
      diff := Some (Printf.sprintf "%s: library %s, oracle %s" what (show_lib ()) (show_oracle ()))
  in
  let c = Graph.centroid g and c' = Graph_oracle.centroid g in
  check "centroid" (c = c') (fun () -> string_of_int c) (fun () -> string_of_int c');
  let conn = Graph.is_connected g and conn' = Graph_oracle.is_connected g in
  check "is_connected" (conn = conn') (fun () -> string_of_bool conn) (fun () -> string_of_bool conn');
  let floats a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  for src = 0 to n - 1 do
    let d = Graph.distances_avoiding g ~src ~node_ok ~edge_ok
    and d' = Graph_oracle.distances_avoiding g ~src ~node_ok ~edge_ok in
    check (Printf.sprintf "distances from %d" src) (d = d') (fun () -> floats d) (fun () -> floats d');
    for dst = 0 to n - 1 do
      let k = 1 + ((seed + (src * n) + dst) mod 12) in
      let query name lib oracle =
        let p = lib () and p' = oracle () in
        check (Printf.sprintf "%s %d->%d" name src dst) (p = p') (fun () -> paths p) (fun () -> paths p')
      in
      let yen name lib =
        let p = lib () and p' = Graph_oracle.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok in
        check (Printf.sprintf "%s %d->%d k=%d" name src dst k) (p = p')
          (fun () -> path_list p) (fun () -> path_list p')
      in
      let oracle_path () = Graph_oracle.shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok in
      query "shortest_path_avoiding"
        (fun () -> Graph.shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok)
        oracle_path;
      yen "k_shortest_paths_avoiding" (fun () ->
          Graph.k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok);
      if not masked then begin
        query "shortest_path" (fun () -> Graph.shortest_path g ~src ~dst) oracle_path;
        yen "k_shortest_paths" (fun () -> Graph.k_shortest_paths g ~src ~dst ~k)
      end
    done
  done;
  !diff

let () =
  let failures = ref 0 in
  for seed = 1 to graphs do
    match first_difference seed with
    | None -> ()
    | Some what ->
      incr failures;
      Printf.printf "graph seed %d: %s\n%!" seed what
  done;
  if !failures > 0 then begin
    Printf.printf "graph-oracle sweep: %d of %d graphs differ\n%!" !failures graphs;
    exit 1
  end
  else Printf.printf "graph-oracle sweep: %d graphs equal to the oracle\n%!" graphs
