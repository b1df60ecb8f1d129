(* The fault model of every faulted run and the switch-watchdog default.
   Dependency-free within the harness, so [Chaos] and [Run] read it
   without a cycle; plain data, so a checker can enumerate it. *)

type recovery = No_recovery | Retries | Deadline of float

type faults = {
  data_link : float;
  control_link : float;
  channel : float;
  window_ms : float;
  element_failures : int;
  recovery : recovery;
}

let default_watchdog_ms = 400.0

let default_faults =
  {
    data_link = 0.08;
    control_link = 0.08;
    channel = 0.08;
    window_ms = 3000.0;
    element_failures = 2;
    recovery = Retries;
  }

let fault_free f =
  { f with data_link = 0.0; control_link = 0.0; channel = 0.0; element_failures = 0 }
