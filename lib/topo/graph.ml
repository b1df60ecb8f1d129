type edge = { u : int; v : int; latency_ms : float; capacity : float }

type t = {
  n : int;
  adjacency : (int * float * float) list array; (* neighbor, latency, capacity *)
  mutable edge_list : edge list; (* reverse insertion order *)
  mutable m : int;
  capacity_overrides : (int * int, float) Hashtbl.t;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    n;
    adjacency = Array.make (max n 1) [];
    edge_list = [];
    m = 0;
    capacity_overrides = Hashtbl.create 8;
  }

let node_count g = g.n
let edge_count g = g.m

let check_node g id name =
  if id < 0 || id >= g.n then
    invalid_arg (Printf.sprintf "Graph.%s: node %d out of range [0,%d)" name id g.n)

let has_edge g u v = List.exists (fun (w, _, _) -> w = v) g.adjacency.(u)

let add_edge g ~u ~v ~latency_ms ~capacity =
  check_node g u "add_edge";
  check_node g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if has_edge g u v then invalid_arg "Graph.add_edge: duplicate edge";
  (* [Float.is_finite] first: every comparison with nan is false. *)
  if not (Float.is_finite latency_ms) || latency_ms < 0.0 then
    invalid_arg "Graph.add_edge: negative or non-finite latency";
  if not (Float.is_finite capacity) || capacity <= 0.0 then
    invalid_arg "Graph.add_edge: non-positive or non-finite capacity";
  g.adjacency.(u) <- g.adjacency.(u) @ [ (v, latency_ms, capacity) ];
  g.adjacency.(v) <- g.adjacency.(v) @ [ (u, latency_ms, capacity) ];
  g.edge_list <- { u; v; latency_ms; capacity } :: g.edge_list;
  g.m <- g.m + 1

let edge_attrs g u v =
  check_node g u "edge";
  check_node g v "edge";
  let rec find = function
    | [] -> raise Not_found
    | (w, lat, cap) :: rest -> if w = v then (lat, cap) else find rest
  in
  find g.adjacency.(u)

let latency g u v = fst (edge_attrs g u v)

let capacity g u v =
  match Hashtbl.find_opt g.capacity_overrides (min u v, max u v) with
  | Some cap -> cap
  | None -> snd (edge_attrs g u v)

let set_capacity g u v cap =
  if not (Float.is_finite cap) || cap <= 0.0 then
    invalid_arg "Graph.set_capacity: non-positive or non-finite capacity";
  ignore (edge_attrs g u v);
  Hashtbl.replace g.capacity_overrides (min u v, max u v) cap
let neighbors g u = check_node g u "neighbors"; List.map (fun (w, _, _) -> w) g.adjacency.(u)
let edges g = List.rev g.edge_list

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
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
        g.adjacency.(u)
    done;
    !visited = g.n
  end

let hop_distances g ~dst =
  check_node g dst "hop_distances";
  let dist = Array.make g.n max_int in
  dist.(dst) <- 0;
  let queue = Queue.create () in
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (v, _, _) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      g.adjacency.(u)
  done;
  dist

(* Dijkstra over an adjacency view, so Yen's algorithm can mask nodes and
   edges without copying the graph.  [blocked_node] and [blocked_edge]
   filter the search space. *)
let dijkstra_masked g ~src ~dst ~blocked_node ~blocked_edge =
  let dist = Array.make g.n infinity in
  let hops = Array.make g.n max_int in
  let prev = Array.make g.n (-1) in
  let visited = Array.make g.n false in
  dist.(src) <- 0.0;
  hops.(src) <- 0;
  let better v alt alt_hops =
    alt < dist.(v)
    || (alt = dist.(v) && alt_hops < hops.(v))
  in
  let rec pick_min best i =
    if i >= g.n then best
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
          g.adjacency.(u);
        loop ()
      end
  in
  loop ();
  if dist.(dst) = infinity then None
  else begin
    let rec rebuild acc v = if v = src then src :: acc else rebuild (v :: acc) prev.(v) in
    Some (rebuild [] dst, dist.(dst))
  end

let shortest_path g ~src ~dst =
  check_node g src "shortest_path";
  check_node g dst "shortest_path";
  if src = dst then Some [ src ]
  else
    match
      dijkstra_masked g ~src ~dst
        ~blocked_node:(fun _ -> false)
        ~blocked_edge:(fun _ _ -> false)
    with
    | None -> None
    | Some (path, _) -> Some path

(* Full single-source Dijkstra over the masked subgraph: distance from
   [src] to every node, [infinity] where unreachable (or masked out).
   Same (latency, hops, node-id) tie-breaking as [dijkstra_masked]; the
   intent layer uses the result as a lower bound on any masked path. *)
let distances_avoiding g ~src ~node_ok ~edge_ok =
  check_node g src "distances_avoiding";
  let dist = Array.make g.n infinity in
  if not (node_ok src) then dist
  else begin
    let hops = Array.make g.n max_int in
    let visited = Array.make g.n false in
    dist.(src) <- 0.0;
    hops.(src) <- 0;
    let rec pick_min best i =
      if i >= g.n then best
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
          g.adjacency.(u);
        loop ()
    in
    loop ();
    dist
  end

let shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok =
  check_node g src "shortest_path_avoiding";
  check_node g dst "shortest_path_avoiding";
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

let path_latency g = function
  | [] | [ _ ] -> 0.0
  | path ->
    let rec sum acc = function
      | a :: (b :: _ as rest) -> sum (acc +. latency g a b) rest
      | _ -> acc
    in
    sum 0.0 path

let path_is_valid g path =
  let rec adjacent_ok = function
    | a :: (b :: _ as rest) -> has_edge g a b && adjacent_ok rest
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

(* Yen's k-shortest loop-free paths over the subgraph selected by
   [node_ok]/[edge_ok]; the caller masks compose with Yen's own spur
   masks.  The trivial-mask instance is [k_shortest_paths]. *)
let k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok =
  check_node g src "k_shortest_paths";
  check_node g dst "k_shortest_paths";
  if k <= 0 then []
  else
    match shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok with
    | None -> []
    | Some first ->
      let accepted = ref [ (first, path_latency g first) ] in
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
              if path_is_valid g total then add_candidate (total, path_latency g total)
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

let k_shortest_paths g ~src ~dst ~k =
  k_shortest_paths_avoiding g ~src ~dst ~k
    ~node_ok:(fun _ -> true)
    ~edge_ok:(fun _ _ -> true)

(* One full Dijkstra per source.  Its distances equal, bit for bit, the
   [path_latency] of each [shortest_path]: the same tie-breaking picks
   the same path, whose latencies are added in the same order. *)
let centroid g =
  if g.n = 0 then invalid_arg "Graph.centroid: empty graph";
  let eccentricity src =
    Array.fold_left Float.max 0.0
      (distances_avoiding g ~src ~node_ok:(fun _ -> true) ~edge_ok:(fun _ _ -> true))
  in
  let rec best i best_node best_ecc =
    if i >= g.n then best_node
    else
      let e = eccentricity i in
      if e < best_ecc then best (i + 1) i e else best (i + 1) best_node best_ecc
  in
  best 1 0 (eccentricity 0)
