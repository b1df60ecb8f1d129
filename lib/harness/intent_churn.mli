(** Intent-driven churn for the workload harnesses.

    Replaces independent Poisson path flips with a seeded intent-event
    stream: drain/undrain maintenance cycles and rolling TE
    re-optimization sweeps drawn from the world's simulation RNG, plus
    failover storms folded in from [Netsim.on_topology_event] (element
    failures the surrounding harness schedules become compiler events,
    so intent re-routing races the §11 recovery plane on the same
    topology).  Each event is compiled incrementally and lowered into
    one correlated [Controller.prepare_batch] burst. *)

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

(** [create ~flows w] draws a program of [flows] flow intents from
    [w]'s RNG — 25% spread over 3 ECMP paths, 25% pinned through a
    waypoint, the rest on shortest paths, each of demand 1 — compiles
    it, installs every member flow (bridge-allocated ids, version 1) and
    subscribes to topology events.  Of the drawn intent events, 60%
    drain or undrain a link (at most 2 drained at once) and the rest
    re-optimize TE.  Call before attaching the traffic auditor so the
    initial population is visible to [World.flows]. *)
val create : flows:int -> World.t -> t

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
