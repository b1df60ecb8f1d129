(** Pure verification decisions: Algorithm 1 (single-layer) and
    Algorithm 2 (dual-layer) of the paper.

    The functions are pure so that every branch can be unit- and
    property-tested; the switch program ({!Switch}) interprets the
    decisions by mutating the {!Uib} and emitting messages. *)

(** The node's view of its own state and of the highest UIM, as read from
    the UIB registers. *)
type node_view = {
  ver_cur : int;       (** V_n(v) — committed version, 0 = never configured *)
  dist_cur : int;      (** D_n(v) *)
  ver_prev : int;      (** V_o(v) *)
  dist_prev : int;     (** D_o(v) — old-distance label *)
  counter : int;       (** C(v) *)
  last_dual : bool;    (** T(v) = dual *)
  uim_version : int;   (** V(UIM) — highest indication, 0 = none *)
  uim_distance : int;  (** D_n(UIM) *)
}

(** The relevant UNM fields. *)
type unm_view = {
  u_ver_new : int;   (** V_n(UNM) *)
  u_ver_old : int;   (** V_o(UNM) *)
  u_dist_new : int;  (** D_n(UNM) — sender's committed new distance *)
  u_dist_old : int;  (** D_o(UNM) — sender's old-distance label *)
  u_counter : int;   (** C(UNM) *)
  u_dual : bool;     (** T(UNM) = dual *)
  u_committed : bool;
      (** sender already committed this version (Appendix C extension) *)
}

(** Which positive branch produced a commit — the post-commit version and
    old-distance bookkeeping differs per branch (Alg. 2 l.11–23). *)
type commit_source =
  | Via_sl          (** Alg. 1 success *)
  | Via_dl_inside   (** Alg. 2, node inside a segment *)
  | Via_dl_gateway  (** Alg. 2, gateway joining the proposer's segment *)

(** Decision of a verification round. *)
type decision =
  | Commit of commit_source
      (** Install the staged rule, commit versions/distances, forward the
          notification upstream. *)
  | Inherit_and_pass
      (** DL: node already at the update's version; inherit the smaller
          old-distance label and pass the notification upstream without
          touching the forwarding rule (Alg. 2, last branch). *)
  | Wait_for_uim
      (** The UNM is ahead of the highest indication: park it (resubmit)
          until the UIM arrives (Alg. 1 l.9–10 / Alg. 2 l.4–5). *)
  | Reject_stale
      (** V_n(UNM) < V(UIM): outdated update; drop, inform controller. *)
  | Reject_distance
      (** Distance invariant violated — would risk a loop; drop, inform
          controller (Alg. 1 l.7–8). *)
  | Ignore
      (** No branch applies (e.g. duplicate proposal with no improvement,
          or a DL proposal at a gateway whose join condition fails —
          normal in the proposal protocol): drop silently. *)

(** [sl_verify node unm] — Algorithm 1. *)
val sl_verify : node_view -> unm_view -> decision

(** [dl_verify ?consecutive node unm] — Algorithm 2 (assumes both the
    staged UIM and the UNM are dual-layer; the caller falls back to
    {!sl_verify} otherwise, as in Alg. 2 l.2–3).

    With [consecutive] set (the Appendix C extension), a node whose last
    update was itself dual-layer — for which the old-distance labels are
    no longer informative — may also commit when the notification comes
    from a parent that has already committed this version: the committed
    set grows from the egress outward, which preserves blackhole and loop
    freedom without an intervening single-layer update.

    [label_guard] (default [true]) is DESIGN §4b's strictly-smaller
    old-distance-label check for inside-segment nodes that still carry a
    live rule.  [false] is the paper's literal Alg. 2 (distance check
    only); only the model checker's regression pins turn it off, to show
    the loop the guard prevents. *)
val dl_verify :
  ?consecutive:bool -> ?label_guard:bool -> node_view -> unm_view -> decision

val decision_to_string : decision -> string
