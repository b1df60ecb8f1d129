(** Bounded model-checking scenarios.

    Each scenario deterministically builds a world, installs a flow and
    schedules one or two updates.  The configurations are RNG-free on
    purpose ([Fixed] control latency, no rule-update stragglers, no
    controller background load): the global state is then a pure
    function of the delivery order, which is what makes
    fingerprint-based pruning sound — two schedules reaching the same
    fingerprint really are in the same state. *)

(** A built scenario instance, ready for {!Explore.check}: the world
    with updates already scheduled, the invariant monitor watching it,
    and the convergence expectation. *)
type ctx = {
  cx_world : Harness.World.t;
  cx_monitor : Harness.Invariants.monitor;
  cx_flows : P4update.Controller.flow list;
  cx_expect : (int * int list) list option;
      (** [(flow_id, final path)] per flow — [None]: check safety
          invariants only (regression scenarios are expected to wedge
          when the fix is on) *)
  cx_horizon_ms : float;
}

(** Which DESIGN §4b fix [--unsafe] disables for a scenario (see
    {!with_toggle}). *)
type unsafe_toggle = No_toggle | Inside_segment | Ruleless_gateway

type t = {
  sc_name : string;
  sc_descr : string;
  sc_window_ms : float;  (** default reorder window *)
  sc_toggle : unsafe_toggle;
  sc_build : Harness.Run_config.t -> ctx;
}

(** The canonical configuration of the checker's default path: seed 7
    (pinned by the fingerprint regression tests) and the per-scenario
    reorder window. *)
val default_cfg : Harness.Run_config.t

(** Reorder window for a run: an explicit [reorder_window_ms] in the
    config beats the scenario's default. *)
val window_of : Harness.Run_config.t -> t -> float

(** The scenario registry, in CLI listing order: fig2a, six-skip,
    ruleless-gateway, stale-label, abort-race. *)
val all : t list

val find : string -> t option

(** [with_toggle sc ~unsafe f] flips the scenario's §4b fix off for the
    duration of [f] — used by the regression tests and the CLI's
    [--unsafe] mode to demonstrate that the checker finds the violation
    the fix prevents.  With [~unsafe:false], just runs [f]. *)
val with_toggle : t -> unsafe:bool -> (unit -> 'a) -> 'a
