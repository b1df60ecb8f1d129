(* The chaos harness's fault plan and the switch-watchdog default: the
   two values more than one harness reads.  Everything else a run reads
   is a labelled argument of its entry point.

   This module is deliberately dependency-free within the harness, so
   [Chaos] (which needs [World] and [Invariants]) reads its fault plan
   from here without a cycle. *)

type fault_plan = {
  fp_window_ms : float;
  fp_horizon_ms : float;
  fp_data_prob : float;
  fp_control_prob : float;
  fp_max_element_failures : int;
  fp_recovery : bool;
}

(* The one switch-watchdog default: every harness (chaos, soak) derives
   from this constant instead of repeating the literal. *)
let default_watchdog_ms = 400.0

let default_faults =
  {
    fp_window_ms = 3000.0;
    fp_horizon_ms = 120_000.0;
    fp_data_prob = 0.08;
    fp_control_prob = 0.08;
    fp_max_element_failures = 2;
    fp_recovery = true;
  }
