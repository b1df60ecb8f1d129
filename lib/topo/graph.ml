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

let path_latency g = function
  | [] | [ _ ] -> 0.0
  | path ->
    let rec sum acc = function
      | a :: (b :: _ as rest) -> sum (acc +. latency g a b) rest
      | _ -> acc
    in
    sum 0.0 path

(* The one graph search: Dijkstra from [src] over the nodes with
   [node_ok] and the edges with [edge_ok] ([src] itself is not tested),
   settling nodes in (latency, hops, node id) order and stopping once it
   settles [dst] ([-1] settles all it reaches).  Returns the latencies
   ([infinity] where unreached) and each reached node's predecessor. *)
let search g ~src ~dst ~node_ok ~edge_ok =
  let dist = Array.make g.n infinity and hops = Array.make g.n max_int in
  let prev = Array.make g.n (-1) and settled = Array.make g.n false in
  dist.(src) <- 0.0;
  hops.(src) <- 0;
  (* Is ([d], [h]) ahead of node [v]?  The tie-break, written once. *)
  let ahead d h v = d < dist.(v) || (d = dist.(v) && h < hops.(v)) in
  let rec settle () =
    let u = ref (-1) in
    for i = 0 to g.n - 1 do
      if (not settled.(i)) && dist.(i) < infinity && (!u < 0 || ahead dist.(i) hops.(i) !u)
      then u := i
    done;
    let u = !u in
    if u >= 0 && u <> dst then begin
      settled.(u) <- true;
      List.iter
        (fun (v, lat, _) ->
          if (not settled.(v)) && node_ok v && edge_ok u v then begin
            let d = dist.(u) +. lat and h = hops.(u) + 1 in
            if ahead d h v then begin
              dist.(v) <- d;
              hops.(v) <- h;
              prev.(v) <- u
            end
          end)
        g.adjacency.(u);
      settle ()
    end
  in
  settle ();
  (dist, prev)

let all_nodes _ = true
let all_edges _ _ = true

let path_to g ~src ~dst ~node_ok ~edge_ok =
  if not (node_ok src && node_ok dst) then None
  else if src = dst then Some [ src ]
  else
    let dist, prev = search g ~src ~dst ~node_ok ~edge_ok in
    if dist.(dst) = infinity then None
    else
      let rec rebuild acc v = if v = src then src :: acc else rebuild (v :: acc) prev.(v) in
      Some (rebuild [] dst)

let shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok =
  check_node g src "shortest_path";
  check_node g dst "shortest_path";
  path_to g ~src ~dst ~node_ok ~edge_ok

let shortest_path g ~src ~dst =
  shortest_path_avoiding g ~src ~dst ~node_ok:all_nodes ~edge_ok:all_edges

let distances_avoiding g ~src ~node_ok ~edge_ok =
  check_node g src "distances_avoiding";
  if node_ok src then fst (search g ~src ~dst:(-1) ~node_ok ~edge_ok)
  else Array.make g.n infinity

let is_connected g =
  g.n = 0
  || Array.for_all
       (fun d -> d < infinity)
       (fst (search g ~src:0 ~dst:(-1) ~node_ok:all_nodes ~edge_ok:all_edges))

(* Yen's algorithm.  A round spurs from every node of the path accepted
   last but its destination.  The root (that path up to the spur node,
   newest node first) grows by one node per spur, and [sharing] holds the
   rest of every accepted path that starts with root and spur: the edges
   from the spur to their next nodes are masked, as are the root's nodes.
   Candidates stay sorted by (latency, path); the best is accepted, up to
   10,002 paths (10,001 rounds) whatever [k]. *)
let k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok =
  check_node g src "k_shortest_paths";
  check_node g dst "k_shortest_paths";
  let rank (p1, c1) (p2, c2) = match compare c1 c2 with 0 -> compare p1 p2 | c -> c in
  let rec insert c = function
    | x :: rest when rank x c < 0 -> x :: insert c rest
    | l -> c :: l
  in
  (* [accepted] is newest first and [count] long. *)
  let rec rounds count accepted candidates =
    let rec spurs root sharing candidates = function
      | spur :: (_ :: _ as rest) ->
        let sharing =
          List.filter_map (function s :: tail when s = spur -> Some tail | _ -> None) sharing
        in
        let next = List.filter_map (function v :: _ -> Some v | [] -> None) sharing in
        let spur_node_ok v = (not (List.mem v root)) && node_ok v in
        (* The search tests an edge only out of a node it settled, and
           the spur, its source, is settled first. *)
        let spur_edge_ok a b = (not (a = spur && List.mem b next)) && edge_ok a b in
        let candidates =
          match path_to g ~src:spur ~dst ~node_ok:spur_node_ok ~edge_ok:spur_edge_ok with
          | None -> candidates
          | Some spur_path ->
            let path = List.rev_append root spur_path in
            if List.exists (fun (p, _) -> p = path) candidates || List.mem path accepted then
              candidates
            else insert (path, path_latency g path) candidates
        in
        spurs (spur :: root) sharing candidates rest
      | _ -> candidates
    in
    if count >= min k 10_002 then accepted
    else
      match spurs [] accepted candidates (List.hd accepted) with
      | [] -> accepted
      | (best, _) :: rest -> rounds (count + 1) (best :: accepted) rest
  in
  if k <= 0 then []
  else
    match path_to g ~src ~dst ~node_ok ~edge_ok with
    | None -> []
    | Some first -> List.rev (rounds 1 [ first ] [])

let k_shortest_paths g ~src ~dst ~k =
  k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok:all_nodes ~edge_ok:all_edges

(* One full search per source.  Its distances equal, bit for bit, the
   [path_latency] of each [shortest_path]: the same search picks the same
   path, whose latencies are added in the same order. *)
let centroid g =
  if g.n = 0 then invalid_arg "Graph.centroid: empty graph";
  let eccentricity src =
    Array.fold_left Float.max 0.0
      (distances_avoiding g ~src ~node_ok:all_nodes ~edge_ok:all_edges)
  in
  let rec best i best_node best_ecc =
    if i >= g.n then best_node
    else
      let e = eccentricity i in
      if e < best_ecc then best (i + 1) i e else best (i + 1) best_node best_ecc
  in
  best 1 0 (eccentricity 0)
