(** ez-Segway (Nguyen et al., SOSR '17) as adapted by the paper (§9.1).

    The controller splits each flow update into segments, classifies them
    [in_loop] / [not_in_loop], and sends every switch its update in one
    shot.  not_in_loop segments update immediately and in parallel
    (GoodToMove messages travel upstream inside each segment); in_loop
    segments wait until everything downstream of them has finished, which
    an AllDone token propagating from the egress enforces.  The token's
    arrival at the ingress marks flow completion.

    With congestion freedom enabled, the controller additionally computes
    a global inter-flow dependency graph and assigns one of three static
    priority classes to every move — the centralized preparation step
    whose cost Fig. 8b compares against P4Update's data-plane offloading.

    There is no verification: switches install whatever arrives, which is
    what §4.1 exploits. *)

type t

(** {2 Preparation (pure; benchmarked by Fig. 8)} *)

type plan_node = {
  pn_node : int;
  pn_new_port : int;      (** new forwarding port; may equal the old one *)
  pn_changed : bool;      (** rule actually changes *)
  pn_notify : int;        (** port toward the upstream predecessor on P_n *)
  pn_in_loop : bool;      (** lies inside (or at the upstream gateway of) an in_loop segment *)
  pn_trigger : bool;      (** segment-egress of a not_in_loop segment: starts GoodToMove *)
  pn_is_ingress : bool;
  pn_is_egress : bool;
  pn_priority : int;      (** 0 (move first) .. 2 (move last); 0 when no congestion *)
}

type plan_flow = {
  pf_flow : int;
  pf_size : int;
  pf_new_path : int list;
  pf_nodes : plan_node list;
  pf_segment_orders : (int list * bool) list;
      (** per segment: explicit update order (egress side first) and its
          in_loop class — the encoding the controller ships to the
          segment egress gateways *)
  pf_dependencies : (int * int) list;
      (** inter-segment dependencies (in_loop segment index waits for
          downstream segment index) *)
}

type update_request = {
  ur_flow : int;
  ur_size : int;
  ur_old_path : int list;  (** the controller's (possibly stale) view *)
  ur_new_path : int list;
}

(** [prepare net ~congestion requests] computes the full plan — segments,
    classes, update orders and (optionally) the inter-flow dependency
    priorities. *)
val prepare : Netsim.t -> congestion:bool -> update_request list -> plan_flow list

(** The centralized inter-flow dependency graph ez-Segway's congestion
    handling rests on: one vertex per (flow, entering link) move, one edge
    per capacity dependency on a (flow, leaving link) move, with cycle
    detection to assign the three priority classes.  Recomputed from
    scratch for every newly arriving update — the cost Fig. 8b measures. *)
type dependency_graph = {
  dg_moves : (int * (int * int)) array;          (** flow, entering link *)
  dg_edges : (int * int) list;                   (** dependency: move i waits for move j *)
  dg_in_cycle : bool array;
  dg_priority : (int, int) Hashtbl.t;            (** flow -> class 0..2 *)
}

val build_dependency_graph : Netsim.t -> update_request list -> dependency_graph

(** {2 Runtime} *)

val create : Netsim.t -> congestion:bool -> t

val agents : t -> Agent.t array

val register_flow : t -> src:int -> dst:int -> size:int -> path:int list -> int

(** [push t plans] sends each node its update message and starts the
    distributed update. *)
val push : t -> plan_flow list -> unit

(** [schedule_updates t requests] = prepare + push. *)
val schedule_updates : t -> update_request list -> unit

(** Completion time of a flow (token reached the ingress), if done. *)
val completion_time : t -> flow_id:int -> float option

val trace : t -> flow_id:int -> src:int -> int list option
