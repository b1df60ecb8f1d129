(** Path segmentation for DL-P4Update (§3.2, §7.5).

    Gateway nodes are the nodes shared between the old and the new path,
    ordered along the new path.  A segment is the stretch of the new path
    between two consecutive gateways: it is {e forward} when it strictly
    decreases the old-path distance (safe to update in parallel) and
    {e backward} otherwise (must wait for downstream segments). *)

type direction = Forward | Backward

type segment = {
  ingress_gateway : int;  (** gateway closer to the global ingress *)
  egress_gateway : int;   (** gateway closer to the global egress *)
  interior : int list;    (** nodes strictly between the gateways, along P_n *)
  direction : direction;
}

type t = {
  gateways : int list;     (** in new-path order, ingress first *)
  segments : segment list; (** in new-path order, ingress side first *)
}

(** [compute ~old_path ~new_path] segments the update.  Both paths must
    share their first (ingress) and last (egress) node. *)
val compute : old_path:int list -> new_path:int list -> t

(** [annotate seg labels] adds DL roles to the labels: gateway flags and a
    segment-egress flag on every egress gateway (those clone the
    first/second-layer proposals). *)
val annotate : t -> Label.node_label list -> Label.node_label list

(** Number of forward segments — the quantity the §7.5 policy inspects. *)
val forward_count : t -> int

(** Nodes that receive new forwarding rules and lie inside forward
    segments (for the §7.5 policy). *)
val forward_interior_nodes : t -> int list
