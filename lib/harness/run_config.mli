(** The fault plan of the chaos harness and the switch-watchdog default.

    Every harness entry point takes labelled arguments for exactly what
    it reads; this module keeps only the two shared values that more
    than one harness (and the benchmark driver) reads.  It depends on
    nothing else in the harness, so {!Chaos} and {!Run} read it without
    a cycle. *)

(** Stochastic-fault schedule knobs of the chaos harness ({!Chaos.run}),
    whose workload is 3 flows under the {!default_watchdog_ms} switch
    watchdog, probed every 500 ms. *)
type fault_plan = {
  fp_window_ms : float;          (** faults and failures stop after this *)
  fp_horizon_ms : float;         (** simulation bound for convergence *)
  fp_data_prob : float;          (** per-packet fault probability, data plane *)
  fp_control_prob : float;       (** per-message fault probability, control *)
  fp_max_element_failures : int; (** 0–n scheduled link/node failures *)
  fp_recovery : bool;            (** arm the §11 recovery loop *)
}

(** The single source of the switch-watchdog default (ms); chaos and soak
    configurations derive from it. *)
val default_watchdog_ms : float

(** 3 s fault window, 120 s horizon, 8% fault probability on both
    planes, up to 2 element failures, §11 recovery on. *)
val default_faults : fault_plan
