(** Traffic synthesis for the multi-flow scenario (§9.1).

    Flow sizes follow Roughan's simple gravity model: the demand between a
    source [s] and destination [t] is proportional to [w(s) * w(t)] for
    per-node weights [w].  The generated traffic is scaled so that it is
    close to — but feasible within — the network capacity on both the old
    and the new paths, regenerating when infeasible, as the paper does. *)

type flow = {
  flow_id : int;
  src : int;
  dst : int;
  size : float;
  old_path : int list;
  new_path : int list;
}

(** [multi_flow_workload rng graph] draws, for every node, a uniformly
    random distinct destination; the old path is the shortest path and the
    new path the 2nd-shortest (Yen).  Nodes whose 2nd-shortest path does
    not exist are skipped.  Sizes come from the gravity model, rescaled by
    [utilization] (default 0.98) of the most loaded link so that both the
    old and the new assignment respect capacity. *)
val multi_flow_workload :
  ?utilization:float -> Random.State.t -> Graph.t -> flow list

(** [feasible graph flows ~use_new] checks capacity on every link. *)
val feasible : Graph.t -> flow list -> use_new:bool -> bool

(** [tighten_capacities graph flows ~headroom] sets the capacity of every
    link used by the workload to [max(old load, new load) * headroom]:
    both assignments stay feasible, but most transitions now depend on
    other flows moving away first — the inter-flow dependency pressure of
    the paper's multi-flow scenario ("the generated traffic aims to be
    close to the network's capacity"). *)
val tighten_capacities : Graph.t -> flow list -> headroom:float -> unit

(** [transition_schedulable graph flows] checks that a one-move-at-a-time
    scheduler (each flow updating egress-first, as every system here does)
    can migrate the whole workload within the current link capacities —
    i.e. the inter-flow dependency graph has no unresolvable cycle.  The
    paper repeats traffic generation when the workload is infeasible. *)
val transition_schedulable : Graph.t -> flow list -> bool

(** Deterministic flow identifier from the (src, dst) pair — the "hash"
    the ingress switch computes for the FRM (§8, Appendix B). *)
val flow_id_of_pair : src:int -> dst:int -> int
