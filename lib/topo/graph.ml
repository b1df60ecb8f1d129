type edge = { u : int; v : int; latency_ms : float; capacity : float }

(* Node [u]'s edges, in insertion order, are [nbrs.(u).(i)] with latency
   [lats.(u).(i)] and capacity [caps.(u).(i)]: packed arrays the search
   walks without following a list or boxing a float. *)
type t = {
  n : int;
  nbrs : int array array;
  lats : float array array;
  caps : float array array;
  mutable edge_list : edge list; (* reverse insertion order *)
  mutable m : int;
  capacity_overrides : (int * int, float) Hashtbl.t;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    n;
    nbrs = Array.make n [||];
    lats = Array.make n [||];
    caps = Array.make n [||];
    edge_list = [];
    m = 0;
    capacity_overrides = Hashtbl.create 8;
  }

let node_count g = g.n
let edge_count g = g.m

let check_node g id name =
  if id < 0 || id >= g.n then
    invalid_arg (Printf.sprintf "Graph.%s: node %d out of range [0,%d)" name id g.n)

(* The index of [v] among the neighbours [nbrs], from [i] on, or [-1]. *)
let rec find_slot nbrs v i =
  if i = Array.length nbrs then -1 else if nbrs.(i) = v then i else find_slot nbrs v (i + 1)

let has_edge g u v = u >= 0 && u < g.n && find_slot g.nbrs.(u) v 0 >= 0

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
  let append a b w =
    g.nbrs.(a) <- Array.append g.nbrs.(a) [| b |];
    g.lats.(a) <- Array.append g.lats.(a) [| latency_ms |];
    g.caps.(a) <- Array.append g.caps.(a) [| w |]
  in
  append u v capacity;
  append v u capacity;
  g.edge_list <- { u; v; latency_ms; capacity } :: g.edge_list;
  g.m <- g.m + 1

(* The slot of edge [u–v] in [u]'s arrays; raises [Not_found] if there
   is no such edge. *)
let edge_slot g u v =
  check_node g u "edge";
  check_node g v "edge";
  let i = find_slot g.nbrs.(u) v 0 in
  if i < 0 then raise Not_found else i

let latency g u v = g.lats.(u).(edge_slot g u v)

let capacity g u v =
  match Hashtbl.find_opt g.capacity_overrides (min u v, max u v) with
  | Some cap -> cap
  | None -> g.caps.(u).(edge_slot g u v)

let set_capacity g u v cap =
  if not (Float.is_finite cap) || cap <= 0.0 then
    invalid_arg "Graph.set_capacity: non-positive or non-finite capacity";
  ignore (edge_slot g u v);
  Hashtbl.replace g.capacity_overrides (min u v, max u v) cap
let neighbors g u = check_node g u "neighbors"; Array.to_list g.nbrs.(u)
let edges g = List.rev g.edge_list

(* Left to right, one hop at a time: Yen ranks its candidates on this
   sum, so the order of the additions is part of every answer. *)
let path_latency g path =
  let acc = ref 0.0 and rest = ref path in
  let continue = ref true in
  while !continue do
    match !rest with
    | a :: (b :: _ as tail) ->
      acc := !acc +. g.lats.(a).(edge_slot g a b);
      rest := tail
    | _ -> continue := false
  done;
  !acc

(* One query's scratch, sized to the graph.  Node [v] is reached in the
   current query when [stamp.(v) = gen]: [dist], [hops] and [prev] then
   hold its label and [pos] its index in the binary heap [heap] (of
   [size] nodes), or [-1] once it is settled.  Starting a query bumps
   [gen], so the spur searches of one Yen call share a workspace without
   clearing it.  [t] holds none: a mask may run its own query on the
   same graph, and an array handed out belongs to the caller. *)
type workspace = {
  dist : float array;
  hops : int array;
  prev : int array;
  stamp : int array;
  pos : int array;
  heap : int array;
  mutable size : int;
  mutable gen : int;
}

(* A fresh workspace's [dist] is [infinity] at every node its first
   query leaves unreached. *)
let workspace n =
  {
    dist = Array.make n infinity;
    hops = Array.make n 0;
    prev = Array.make n (-1);
    stamp = Array.make n 0;
    pos = Array.make n (-1);
    heap = Array.make n 0;
    size = 0;
    gen = 0;
  }

let reached ws v = ws.stamp.(v) = ws.gen && ws.dist.(v) < infinity

(* Does reached node [a] settle before [b]?  The tie-break, written
   once: latency, then hop count, then node id. *)
let before ws a b =
  let da = ws.dist.(a) and db = ws.dist.(b) in
  da < db
  || da = db
     && (ws.hops.(a) < ws.hops.(b) || (ws.hops.(a) = ws.hops.(b) && a < b))

let place ws i v =
  ws.heap.(i) <- v;
  ws.pos.(v) <- i

(* Move [v] from heap index [i] towards the root, or down towards the
   leaves, to where it settles in order. *)
let rec sift_up ws i v =
  if i = 0 then place ws 0 v
  else
    let p = (i - 1) / 2 in
    let w = ws.heap.(p) in
    if before ws v w then begin
      place ws i w;
      sift_up ws p v
    end
    else place ws i v

let rec sift_down ws i v =
  let l = (2 * i) + 1 in
  if l >= ws.size then place ws i v
  else
    let c = if l + 1 < ws.size && before ws ws.heap.(l + 1) ws.heap.(l) then l + 1 else l in
    let w = ws.heap.(c) in
    if before ws w v then begin
      place ws i w;
      sift_down ws c v
    end
    else place ws i v

(* The one graph search: Dijkstra from [src] over the nodes with
   [node_ok] and the edges with [edge_ok] ([src] itself is not tested),
   settling nodes in (latency, hops, node id) order and stopping once it
   settles [dst] ([-1] settles all it reaches).  A label moves only on a
   relaxation strictly ahead of it in (latency, hops): of equal offers,
   the neighbour settled first stays the predecessor.  Every node enters
   the heap once and moves up on a decrease, so a query costs
   O((n + m) log n) on the nodes and edges it reaches.  [ws] holds the
   answer: [reached], [dist] and [prev]. *)
let search g ws ~src ~dst ~node_ok ~edge_ok =
  ws.gen <- ws.gen + 1;
  let gen = ws.gen in
  ws.stamp.(src) <- gen;
  ws.dist.(src) <- 0.0;
  ws.hops.(src) <- 0;
  ws.prev.(src) <- -1;
  ws.size <- 1;
  place ws 0 src;
  let continue = ref true in
  while !continue && ws.size > 0 do
    let u = ws.heap.(0) in
    (* A node at [infinity] (latencies that overflow) is never settled. *)
    if u = dst || not (ws.dist.(u) < infinity) then continue := false
    else begin
      ws.size <- ws.size - 1;
      if ws.size > 0 then sift_down ws 0 ws.heap.(ws.size);
      ws.pos.(u) <- -1;
      let nbrs = g.nbrs.(u) and lats = g.lats.(u) in
      for i = 0 to Array.length nbrs - 1 do
        let v = nbrs.(i) in
        let fresh = ws.stamp.(v) <> gen in
        if (fresh || ws.pos.(v) >= 0) && node_ok v && edge_ok u v then begin
          let d = ws.dist.(u) +. lats.(i) and h = ws.hops.(u) + 1 in
          if fresh || d < ws.dist.(v) || (d = ws.dist.(v) && h < ws.hops.(v)) then begin
            ws.dist.(v) <- d;
            ws.hops.(v) <- h;
            ws.prev.(v) <- u;
            if fresh then begin
              ws.stamp.(v) <- gen;
              ws.size <- ws.size + 1;
              sift_up ws (ws.size - 1) v
            end
            else sift_up ws ws.pos.(v) v
          end
        end
      done
    end
  done

let all_nodes _ = true
let all_edges _ _ = true

let rec rebuild prev src acc v = if v = src then src :: acc else rebuild prev src (v :: acc) prev.(v)

let path_to g ws ~src ~dst ~node_ok ~edge_ok =
  if not (node_ok src && node_ok dst) then None
  else if src = dst then Some [ src ]
  else begin
    search g ws ~src ~dst ~node_ok ~edge_ok;
    if reached ws dst then Some (rebuild ws.prev src [] dst) else None
  end

let shortest_path_avoiding g ~src ~dst ~node_ok ~edge_ok =
  check_node g src "shortest_path";
  check_node g dst "shortest_path";
  path_to g (workspace g.n) ~src ~dst ~node_ok ~edge_ok

let shortest_path g ~src ~dst =
  shortest_path_avoiding g ~src ~dst ~node_ok:all_nodes ~edge_ok:all_edges

(* The workspace is fresh and the caller's: its [dist] is the answer. *)
let distances_avoiding g ~src ~node_ok ~edge_ok =
  check_node g src "distances_avoiding";
  let ws = workspace g.n in
  if node_ok src then search g ws ~src ~dst:(-1) ~node_ok ~edge_ok;
  ws.dist

let is_connected g =
  g.n = 0
  ||
  let ws = workspace g.n in
  search g ws ~src:0 ~dst:(-1) ~node_ok:all_nodes ~edge_ok:all_edges;
  let rec all v = v = g.n || (reached ws v && all (v + 1)) in
  all 0

(* Yen's ranking: latency, then the path itself, lexicographically (a
   prefix first), as [compare] orders int lists. *)
let rec compare_path a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b -> if x < y then -1 else if x > y then 1 else compare_path a b

type candidate = { path : int list; cost : float; spur_index : int }

let rank a b = if a.cost < b.cost then -1 else if a.cost > b.cost then 1 else compare_path a.path b.path

(* [c] in the candidates, kept strictly sorted by rank: an equal path has
   an equal [path_latency], so it sits where [c] would go. *)
let rec known c = function
  | x :: rest ->
    let r = rank x c in
    if r < 0 then known c rest else r = 0
  | [] -> false

let rec insert c = function
  | x :: rest when rank x c < 0 -> x :: insert c rest
  | l -> c :: l

(* The rests of the paths in [sharing] that start with [spur]. *)
let rec rests spur = function
  | (s :: tail) :: more when s = spur -> tail :: rests spur more
  | _ :: more -> rests spur more
  | [] -> []

(* Yen's algorithm.  A round spurs along the path it accepted last.  The
   root (that path up to the spur node) is marked in [in_root] and grows
   by one node per spur, and [sharing] holds the rest of every accepted
   path that starts with root and spur: the edges from the spur to their
   next nodes ([masked]) are masked, as are the root's nodes.  A spur
   never rebuilds an accepted path, whose edge out of the spur is masked,
   so only the candidates are searched for a duplicate.  Candidates stay
   sorted by (latency, path); the best is accepted, up to 10,002 paths
   (10,001 rounds) whatever [k].

   Lawler's skip: a path accepted from a spur at index [d] is spurred
   only from [d] on.  Below [d] it shares its root and the edge after it
   with the path it was spurred from, so the masks there are those of
   the last search already run at that root, whose answer is still a
   candidate or accepted (DESIGN §9). *)
let k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok ~edge_ok =
  check_node g src "k_shortest_paths";
  check_node g dst "k_shortest_paths";
  let ws = workspace g.n in
  match if k <= 0 then None else path_to g ws ~src ~dst ~node_ok ~edge_ok with
  | None -> []
  | Some first ->
    let in_root = Array.make g.n false and masked = Array.make g.n false in
    let spur_node = ref (-1) in
    let spur_node_ok v = (not in_root.(v)) && node_ok v in
    (* The search tests an edge only out of a node it settled, and the
       spur, its source, is settled first. *)
    let spur_edge_ok a b = (not (a = !spur_node && masked.(b))) && edge_ok a b in
    let rec mark on = function
      | (v :: _) :: more ->
        masked.(v) <- on;
        mark on more
      | [] :: more -> mark on more
      | [] -> ()
    in
    let rec spurs from i root sharing candidates = function
      | spur :: (_ :: _ as rest) ->
        let sharing = rests spur sharing in
        let candidates =
          if i < from then candidates
          else begin
            mark true sharing;
            spur_node := spur;
            let found =
              path_to g ws ~src:spur ~dst ~node_ok:spur_node_ok ~edge_ok:spur_edge_ok
            in
            mark false sharing;
            match found with
            | None -> candidates
            | Some spur_path ->
              let path = List.rev_append root spur_path in
              let c = { path; cost = path_latency g path; spur_index = i } in
              if known c candidates then candidates else insert c candidates
          end
        in
        in_root.(spur) <- true;
        spurs from (i + 1) (spur :: root) sharing candidates rest
      | _ -> candidates
    in
    (* [accepted] is newest first and [count] long; [last] is its head,
       accepted from a spur at index [from]. *)
    let rec rounds count accepted candidates last from =
      if count >= min k 10_002 then accepted
      else begin
        let candidates = spurs from 0 [] accepted candidates last in
        List.iter (fun v -> in_root.(v) <- false) last;
        match candidates with
        | [] -> accepted
        | c :: rest -> rounds (count + 1) (c.path :: accepted) rest c.path c.spur_index
      end
    in
    List.rev (rounds 1 [ first ] [] first 0)

let k_shortest_paths g ~src ~dst ~k =
  k_shortest_paths_avoiding g ~src ~dst ~k ~node_ok:all_nodes ~edge_ok:all_edges

(* One full search per source, on one workspace.  Its distances equal,
   bit for bit, the [path_latency] of each [shortest_path]: the same
   search picks the same path, whose latencies are added in the same
   order. *)
let centroid g =
  if g.n = 0 then invalid_arg "Graph.centroid: empty graph";
  let ws = workspace g.n in
  let eccentricity src =
    search g ws ~src ~dst:(-1) ~node_ok:all_nodes ~edge_ok:all_edges;
    let e = ref 0.0 in
    for v = 0 to g.n - 1 do
      e := Float.max !e (if ws.stamp.(v) = ws.gen then ws.dist.(v) else infinity)
    done;
    !e
  in
  let rec best i best_node best_ecc =
    if i >= g.n then best_node
    else
      let e = eccentricity i in
      if e < best_ecc then best (i + 1) i e else best (i + 1) best_node best_ecc
  in
  best 1 0 (eccentricity 0)
