(** Undirected weighted graph with integer node ids [0 .. node_count - 1].

    Edges carry a latency (milliseconds, used for propagation delay) and a
    capacity (abstract units, used for congestion freedom).  The graph is
    undirected topologically, but capacity is tracked per direction by the
    network layer; here we expose symmetric structure only. *)

type t

type edge = {
  u : int;
  v : int;
  latency_ms : float;
  capacity : float;
}

(** [create n] makes a graph with [n] isolated nodes. *)
val create : int -> t

val node_count : t -> int
val edge_count : t -> int

(** [add_edge g ~u ~v ~latency_ms ~capacity] inserts an undirected edge.
    Raises [Invalid_argument] on self-loops, out-of-range ids, duplicate
    edges, a negative or non-finite [latency_ms] and a non-positive or
    non-finite [capacity]. *)
val add_edge : t -> u:int -> v:int -> latency_ms:float -> capacity:float -> unit

(** [has_edge g u v] is false when either id is out of range. *)
val has_edge : t -> int -> int -> bool

(** [latency g u v] is the latency of edge [u–v].  Raises [Not_found] if
    the edge does not exist. *)
val latency : t -> int -> int -> float

val capacity : t -> int -> int -> float

(** [set_capacity g u v cap] overrides the capacity of edge [u–v] (both
    directions).  Raises [Not_found] if the edge does not exist and
    [Invalid_argument] on a non-positive or non-finite [cap]. *)
val set_capacity : t -> int -> int -> float -> unit

(** Neighbours of a node, in insertion order. *)
val neighbors : t -> int -> int list

val edges : t -> edge list

(** {2 Paths}

    Every query below runs one search, Dijkstra over the nodes with
    [node_ok] and the edges with [edge_ok] (all of them when there are no
    masks).  It orders nodes by latency, then hop count, then node id, so
    each path and distance is deterministic.

    A search settles nodes from a binary heap over packed adjacency
    arrays: O((n + m) log n) time on the n nodes and m edges it reaches,
    testing the masks at most once per edge out of a settled node.  Each query allocates
    its own workspace (a few arrays of [node_count] entries); a Yen call
    shares one across its spur searches.  The graph holds no scratch, so
    a mask may run its own queries on the same graph, and an array a
    query returns belongs to the caller. *)

(** [is_connected g] is true when every node is reachable from node 0
    (vacuously true for the empty graph). *)
val is_connected : t -> bool

(** [shortest_path g ~src ~dst] is the minimum-latency path as a node list
    [src; ...; dst], or [None] if unreachable. *)
val shortest_path : t -> src:int -> dst:int -> int list option

(** {!shortest_path} in the masked subgraph (used to route around failed
    elements without copying the graph).  [None] when [src] or [dst] is
    excluded or no surviving path exists. *)
val shortest_path_avoiding :
  t ->
  src:int ->
  dst:int ->
  node_ok:(int -> bool) ->
  edge_ok:(int -> int -> bool) ->
  int list option

(** [k_shortest_paths g ~src ~dst ~k] are up to [k] loop-free paths ranked
    by (latency, path) (Yen's algorithm; at most 10,002 however large
    [k]).  Each accepted path costs one search per node from the index
    where it left the path it was spurred from. *)
val k_shortest_paths : t -> src:int -> dst:int -> k:int -> int list list

(** {!k_shortest_paths} in the masked subgraph.  Used by the intent
    compiler to spread ECMP members over the live, undrained subgraph. *)
val k_shortest_paths_avoiding :
  t ->
  src:int ->
  dst:int ->
  k:int ->
  node_ok:(int -> bool) ->
  edge_ok:(int -> int -> bool) ->
  int list list

(** [distances_avoiding g ~src ~node_ok ~edge_ok] is the latency from
    [src] to every node of the masked subgraph, [infinity] where
    unreachable or masked out; it lower-bounds the latency of any masked
    path from [src]. *)
val distances_avoiding :
  t -> src:int -> node_ok:(int -> bool) -> edge_ok:(int -> int -> bool) -> float array

(** Total latency along a node path.  Raises [Not_found] if a hop is not an
    edge. *)
val path_latency : t -> int list -> float

(** [centroid g] is the node minimizing its maximum shortest-path latency
    to any other node (used to place the controller, §9.1). *)
val centroid : t -> int
