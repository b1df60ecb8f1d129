(* Reference graph searches: the four searches [Topo.Graph] once ran,
   kept as the oracle its one Dijkstra is checked against.

   - [is_connected] is a BFS from node 0;
   - [dijkstra_masked] (behind [shortest_path_avoiding] and Yen's spurs)
     stops when it settles [dst];
   - [distances_avoiding] is a second, full Dijkstra with its own copy of
     the (latency, hops, node id) tie-break;
   - [k_shortest_paths_avoiding] re-derives each spur root with
     [take_prefix]/[List.nth]/[List.length].

   The code is the library's as it stood, reading the graph through its
   interface: [adjacency g u] is the neighbour list with latencies, in
   insertion order, and [g.n] is [Graph.node_count g].  [path_is_valid],
   which only Yen's spur check used, is the tests' path spec.  A
   test-only library: the unit tests and the [@graph-oracle] sweep
   ([graph_oracle_sweep.ml]) both check against it. *)

module Graph = Topo.Graph

let adjacency g u = List.map (fun v -> (v, Graph.latency g u v, ())) (Graph.neighbors g u)

(* [path_is_valid g p]: consecutive nodes are adjacent and the path is
   simple (no repeated node). *)
let path_is_valid g path =
  let rec adjacent_ok = function
    | a :: (b :: _ as rest) -> Graph.has_edge g a b && adjacent_ok rest
    | _ -> true
  in
  let simple =
    let sorted = List.sort compare path in
    let rec no_dup = function
      | a :: (b :: _ as rest) -> a <> b && no_dup rest
      | _ -> true
    in
    no_dup sorted
  in
  (match path with [] -> false | _ -> true) && simple && adjacent_ok path

let is_connected g =
  let n = Graph.node_count g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr visited;
      List.iter
        (fun (v, _, _) ->
          if not seen.(v) then begin
            seen.(v) <- true;
            Queue.add v queue
          end)
        (adjacency g u)
    done;
    !visited = n
  end

let dijkstra_masked g ~src ~dst ~blocked_node ~blocked_edge =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let hops = Array.make n max_int in
  let prev = Array.make n (-1) in
  let visited = Array.make n false in
  dist.(src) <- 0.0;
  hops.(src) <- 0;
  let better v alt alt_hops =
    alt < dist.(v)
    || (alt = dist.(v) && alt_hops < hops.(v))
  in
  let rec pick_min best i =
    if i >= n then best
    else
      let best =
        if visited.(i) || dist.(i) = infinity then best
        else
          match best with
          | None -> Some i
          | Some b ->
            if
              dist.(i) < dist.(b)
              || (dist.(i) = dist.(b) && (hops.(i) < hops.(b) || (hops.(i) = hops.(b) && i < b)))
            then Some i
            else best
      in
      pick_min best (i + 1)
  in
  let rec loop () =
    match pick_min None 0 with
    | None -> ()
    | Some u ->
      if u = dst then ()
      else begin
        visited.(u) <- true;
        List.iter
          (fun (v, lat, _) ->
            if (not visited.(v)) && (not (blocked_node v)) && not (blocked_edge u v) then begin
              let alt = dist.(u) +. lat in
              let alt_hops = hops.(u) + 1 in
              if better v alt alt_hops then begin
                dist.(v) <- alt;
                hops.(v) <- alt_hops;
                prev.(v) <- u
              end
            end)
          (adjacency g u);
        loop ()
      end
  in
  loop ();
  if dist.(dst) = infinity then None
  else begin
    let rec rebuild acc v = if v = src then src :: acc else rebuild (v :: acc) prev.(v) in
    Some (rebuild [] dst, dist.(dst))
  end

let distances_avoiding g ~src ~node_ok ~edge_ok =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  if not (node_ok src) then dist
  else begin
    let hops = Array.make n max_int in
    let visited = Array.make n false in
    dist.(src) <- 0.0;
    hops.(src) <- 0;
    let rec pick_min best i =
      if i >= n then best
      else
        let best =
          if visited.(i) || dist.(i) = infinity then best
          else
            match best with
            | None -> Some i
            | Some b ->
              if
                dist.(i) < dist.(b)
                || (dist.(i) = dist.(b)
                    && (hops.(i) < hops.(b) || (hops.(i) = hops.(b) && i < b)))
              then Some i
              else best
        in
        pick_min best (i + 1)
    in
    let rec loop () =
      match pick_min None 0 with
      | None -> ()
      | Some u ->
        visited.(u) <- true;
        List.iter
          (fun (v, lat, _) ->
            if (not visited.(v)) && node_ok v && edge_ok u v then begin
              let alt = dist.(u) +. lat in
              let alt_hops = hops.(u) + 1 in
              if
                alt < dist.(v)
                || (alt = dist.(v) && alt_hops < hops.(v))
              then begin
                dist.(v) <- alt;
                hops.(v) <- alt_hops
              end
            end)
          (adjacency g u);
        loop ()
    in
    loop ();
    dist
  end

let shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok =
  if not (node_ok src && node_ok dst) then None
  else if src = dst then Some [ src ]
  else
    match
      dijkstra_masked g ~src ~dst
        ~blocked_node:(fun n -> not (node_ok n))
        ~blocked_edge:(fun u v -> not (edge_ok u v))
    with
    | None -> None
    | Some (path, _) -> Some path

let k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok =
  if k <= 0 then []
  else
    match shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok with
    | None -> []
    | Some first ->
      let accepted = ref [ (first, Graph.path_latency g first) ] in
      (* Candidates, kept sorted by (cost, path) for determinism. *)
      let candidates = ref [] in
      let add_candidate (path, cost) =
        let known =
          List.exists (fun (p, _) -> p = path) !candidates
          || List.exists (fun (p, _) -> p = path) !accepted
        in
        if not known then candidates := (path, cost) :: !candidates
      in
      let rec take_prefix path i =
        match (path, i) with
        | _, 0 -> []
        | x :: _, _ when i = 1 -> [ x ]
        | x :: rest, _ -> x :: take_prefix rest (i - 1)
        | [], _ -> []
      in
      let rec build iteration =
        if List.length !accepted >= k then ()
        else begin
          let prev_path, _ = List.nth !accepted (List.length !accepted - 1) in
          let len = List.length prev_path in
          (* Spur from every node of the previous accepted path but the
             last. *)
          for i = 0 to len - 2 do
            let root = take_prefix prev_path (i + 1) in
            let spur = List.nth prev_path i in
            (* Edges removed: the edge following the shared root in every
               already-accepted or candidate path with the same root. *)
            let removed_edges =
              List.filter_map
                (fun (p, _) ->
                  if List.length p > i + 1 && take_prefix p (i + 1) = root then
                    Some (List.nth p i, List.nth p (i + 1))
                  else None)
                !accepted
            in
            let root_without_spur = take_prefix root i in
            let blocked_node v = List.mem v root_without_spur || not (node_ok v) in
            let blocked_edge a b =
              List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) removed_edges
              || not (edge_ok a b)
            in
            match dijkstra_masked g ~src:spur ~dst ~blocked_node ~blocked_edge with
            | None -> ()
            | Some (spur_path, _) ->
              let total = root_without_spur @ spur_path in
              if path_is_valid g total then
                add_candidate (total, Graph.path_latency g total)
          done;
          match
            List.sort
              (fun (p1, c1) (p2, c2) ->
                match compare c1 c2 with 0 -> compare p1 p2 | n -> n)
              !candidates
          with
          | [] -> ()
          | best :: rest ->
            candidates := rest;
            accepted := !accepted @ [ best ];
            if iteration < 10_000 then build (iteration + 1)
        end
      in
      build 0;
      List.map fst !accepted

let centroid g =
  let n = Graph.node_count g in
  let eccentricity src =
    Array.fold_left Float.max 0.0
      (distances_avoiding g ~src ~node_ok:(fun _ -> true) ~edge_ok:(fun _ _ -> true))
  in
  let rec best i best_node best_ecc =
    if i >= n then best_node
    else
      let e = eccentricity i in
      if e < best_ecc then best (i + 1) i e else best (i + 1) best_node best_ecc
  in
  best 1 0 (eccentricity 0)
