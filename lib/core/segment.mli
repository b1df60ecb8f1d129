(** Path segmentation for DL-P4Update (§3.2, §7.5).

    Gateway nodes are the nodes shared between the old and the new path,
    ordered along the new path.  A segment is the stretch of the new path
    between two consecutive gateways: it is {e forward} when it strictly
    decreases the old-path distance (safe to update in parallel) and
    {e backward} otherwise (must wait for downstream segments).
    {!Controller.prepare} computes the segmentation of a DL update. *)

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
