(** Intent-driven churn for the workload harnesses.

    Replaces independent Poisson path flips with a seeded intent-event
    stream: drain/undrain maintenance cycles and rolling TE
    re-optimization sweeps drawn from the world's simulation RNG, plus
    failover storms folded in from [Netsim.on_topology_event] (element
    failures the surrounding harness schedules become compiler events,
    so intent re-routing races the §11 recovery plane on the same
    topology).  Each event is compiled incrementally and lowered into
    one correlated [Controller.prepare_batch] burst. *)

type profile = {
  ip_flows : int;  (** flow intents in the drawn program *)
  ip_ecmp_frac : float;  (** fraction spread with [Ecmp_spread] *)
  ip_ecmp_k : int;
  ip_way_frac : float;  (** fraction pinned through a waypoint *)
  ip_drain_bias : float;  (** probability an event is drain/undrain vs TE *)
  ip_max_drains : int;  (** concurrent drained links *)
  ip_demand : int;  (** per-flow demand (capacity units) *)
}

(** 40 intents, 25% ECMP (k=3), 25% waypoint, drain-biased event mix,
    at most 2 concurrent drains, demand 1. *)
val default_profile : profile

type stats = {
  ic_events : int;  (** compiler events applied (intent + topo) *)
  ic_intent_events : int;
  ic_topo_events : int;
  ic_changes : int;  (** flow assignments changed across all diffs *)
  ic_recompiled : int;  (** flow recompilations (incl. initial compile) *)
  ic_max_diff : int;  (** largest single-event change count *)
  ic_empty_draws : int;  (** intent draws that produced no-op diffs *)
  ic_installs : int;  (** member flows installed (incl. bootstrap) *)
  ic_parked : int;  (** members left on a stale path (unroutable) *)
}

type t

(** [create w] draws a program from [w]'s RNG, compiles it, installs
    every member flow (bridge-allocated ids, version 1) and subscribes
    to topology events.  Call before attaching the traffic auditor so
    the initial population is visible to [World.flows]. *)
val create : ?profile:profile -> World.t -> t

(** Hook invoked for member flows installed mid-run (e.g. an ECMP
    member regaining a path after a restore); the scale engine routes
    this to the traffic auditor's admission hook. *)
val set_on_install : t -> (flow_id:int -> unit) -> unit

(** Apply the next burst: all queued topology events, then one drawn
    intent event (retrying a few times past no-op draws).  Returns the
    prepared updates, not yet pushed — the caller pushes and accounts
    for them. *)
val burst : t -> P4update.Controller.prepared list

(** Installed member-path count of the compiled program. *)
val members : t -> int

val program : t -> Intent.Lang.t
val stats : t -> stats
