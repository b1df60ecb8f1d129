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

type t = {
  sc_name : string;
  sc_descr : string;
  sc_window_ms : float;  (** default reorder window *)
  sc_guard : P4update.Switch.guard option;
      (** the DESIGN §4b fix [--unsafe] disables (see {!build}) *)
  sc_build : Obs.Trace.sink option -> ctx;
      (** builds the world with seed 7 (pinned by the fingerprint
          regression tests); its simulation adopts the sink when given *)
}

(** The scenario registry, in CLI listing order: fig2a, six-skip,
    ruleless-gateway, stale-label, abort-race. *)
val all : t list

val find : string -> t option

(** [build ?unsafe ?trace sc] builds one instance of [sc], its
    simulation adopting [trace].  With [unsafe] (default [false]) every
    switch of its world drops the scenario's [sc_guard] — used by the regression tests and the CLI's [--unsafe]
    mode to show that the checker finds the violation the fix prevents.
    Other worlds keep their guards. *)
val build : ?unsafe:bool -> ?trace:Obs.Trace.sink -> t -> ctx
