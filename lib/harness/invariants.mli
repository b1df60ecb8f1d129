(** Shared Thm. 1–4 invariant probes.

    One monitor per {!World.t}; {!create} wires the event-driven probes
    (per-switch commit hooks for version monotonicity, a topology
    observer to excuse restarted nodes), {!check_structural} performs
    the instantaneous checks — loop freedom (Thm. 2), blackhole freedom
    at healthy nodes (Thm. 1), link-capacity freedom (Thm. 3).  Used by
    {!Chaos}, the consistency property tests and the [lib/mc] model
    checker. *)

type violation = { v_time : float; v_flow : int; v_what : string }

type monitor

(** [create w] installs the event-driven probes on [w] and returns the
    monitor accumulating violations.  Install before any update runs. *)
val create : World.t -> monitor

(** [check_structural m flows] checks every flow's forwarding state and
    all link reservations at the current simulated instant, recording
    violations. *)
val check_structural : monitor -> P4update.Controller.flow list -> unit

(** Violations recorded so far, in chronological order. *)
val violations : monitor -> violation list

val violation_to_string : violation -> string
