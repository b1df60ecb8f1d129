(** The scenario driver: one update-time measurement per system, on
    identical topologies, workloads and seeds (§9.1).  The figures,
    ablations, traced runs and the CLI are configurations of it. *)

type system = P4u | Ez | Central

val system_name : system -> string
val all_systems : system list

(** The flows a scenario updates. *)
type flows =
  | Single
      (** one flow of size 100, moved from the {!single_paths} old path
          to its new path *)
  | Multi of { headroom : float }
      (** §9.1's workload, drawn per seed: shortest → 2nd-shortest path,
          gravity sizes, link capacities tightened to [headroom] over the
          worst load (the traffic sits "close to the network's capacity")
          and capacity-gated moves *)

type setup = {
  topo : unit -> Topo.Topologies.t;  (** a fresh topology per run *)
  flows : flows;
  config : Netsim.config;
}

(** [single topo] and [multi ~headroom topo] are §9.1's setups: single
    flows pay Exp(100 ms) straggler rule installs; the control latency is
    Normal(5, 2) on a datacenter and the path latency to the controller
    node elsewhere. *)
val single : (unit -> Topo.Topologies.t) -> setup

val multi : headroom:float -> (unit -> Topo.Topologies.t) -> setup

(** [run setup system ~seed] installs the old paths, pushes every update
    at t = 0 and returns the time (ms) of the last completion: the
    controller receiving the flow's UFM.  Raises [Failure] if an update
    never completes.  With [trace], the run's simulation adopts the sink. *)
val run :
  ?update_type:P4update.Wire.update_type ->
  ?trace:Obs.Trace.sink ->
  setup ->
  system ->
  seed:int ->
  float

(** [sample cfg setup system] runs seeds [Run_config.run_seed cfg 0 ..
    runs - 1] and returns the completion times.  Seeds whose transition
    cannot complete are skipped, so the sample can be shorter than
    [cfg.runs].  With [disable], every P4Update switch of every sampled
    world drops that guard ({!P4update.Switch.disable_guard}); the
    baselines ignore it. *)
val sample :
  ?update_type:P4update.Wire.update_type ->
  ?disable:P4update.Switch.guard ->
  Run_config.t ->
  setup ->
  system ->
  float list

(** [single_paths topo] is the single-flow scenario of [topo]: Fig. 1's
    old and new paths on the Fig. 1 topology, {!single_flow_paths}
    elsewhere. *)
val single_paths : Topo.Topologies.t -> int list * int list

(** [single_flow_paths topo] picks the single-flow scenario paths on a
    WAN: a long old path and an alternative that triggers segmentation
    (contains a backward segment when one exists). *)
val single_flow_paths : Topo.Topologies.t -> int list * int list

(** Number of runs used for the Fig. 7 CDFs (30 in the paper). *)
val runs : int
