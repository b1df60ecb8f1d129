(** Declarative intent language (ROADMAP item 3).

    A program is an ordered list of per-flow intents plus a set of
    drained links.  Policies:

    - [Shortest_path] — pin the flow to the canonical minimum-latency
      path;
    - [Waypoint via] — route through [via] (leg 1 [src -> via], then
      leg 2 [via -> dst] avoiding leg-1 nodes so the whole path stays
      simple);
    - [Ecmp_spread k] — spread over the [k] canonical shortest loop-free
      member paths (Yen), one P4Update flow per member.

    Priorities order the update bursts a compiled diff emits (higher
    first); demand is the capacity (in graph capacity units) a link must
    offer before the compiler will route the flow over it.

    The textual syntax is line-based and deterministic —
    [of_string (to_string p) = Ok p]:

    {v
    # comment
    flow f0 3 -> 7 shortest prio 10 demand 1
    flow f1 2 -> 9 via 5 prio 20 demand 1
    flow f2 0 -> 4 ecmp 3 prio 0 demand 2
    drain 2 - 5
    v} *)

type policy =
  | Shortest_path
  | Waypoint of int  (** waypoint node id; never an endpoint *)
  | Ecmp_spread of int
      (** member count, 1 to {!P4update.Wire.flow_space}: each member
          takes a flow id *)

type flow_intent = {
  fi_name : string;  (** unique, [[A-Za-z0-9_-]+] *)
  fi_src : int;
  fi_dst : int;
  fi_policy : policy;
  fi_priority : int;  (** higher compiles into the burst first *)
  fi_demand : int;  (** required link capacity, >= 1 *)
}

type t = {
  flows : flow_intent list;  (** program order; names unique *)
  drains : (int * int) list;  (** normalized [(min, max)] link keys *)
}

val empty : t
val default_priority : int
val default_demand : int

(** Normalized undirected link key [(min u v, max u v)]. *)
val ekey : int -> int -> int * int

(** Canonical printer; every optional clause is spelled out. *)
val to_string : t -> string

(** Parser for the canonical syntax.  Rejects malformed statements,
    duplicate flow names and duplicate drains with a [line N: ...]
    message; never raises on garbage input. *)
val of_string : string -> (t, string) result

(** [load path] reads and parses an intent file. *)
val load : string -> (t, string) result

(** Check node ids against a concrete graph (endpoints and waypoints in
    range, drained links exist). *)
val validate : t -> Topo.Graph.t -> (unit, string) result

val find : t -> string -> flow_intent option

(** [set_flow p fi] replaces the intent named [fi.fi_name], or appends
    it when new. *)
val set_flow : t -> flow_intent -> t

val remove_flow : t -> string -> t
