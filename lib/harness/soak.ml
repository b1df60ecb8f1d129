(* Soak monitor presets: a cycled run with churn, rolling faults and
   probe audits (see run.ml for the loop and soak.mli for the design). *)

let default_cycles = { Run.cycles = 8; cycle_ms = 6000.0; tail_ms = 8000.0 }
let default_audit =
  { Traffic.default_workload with tw_mean_gap_ms = 1.0; tw_stop_ms = 4000.0 }

let default_faults =
  {
    Run.control_prob = 0.05;
    window_ms = 2500.0;
    element_failures = 2;
    deadline_ms = Some 1500.0;
  }

(* ~1.28M probe packets expected: 8 cycles x 40 flows x 4 s windows at a
   1 ms mean gap.  The deadline is short enough that every update pushed
   into a fault window resolves (success or abort) within its cycle or
   the next, and the settle tail covers the stragglers of the last one. *)
let default_config =
  {
    Run.flows = 40;
    updates = 48;
    burst = 4;
    arrival_mean_ms = 40.0;
    churn = Run.Per_cycle 2;
    pacing = Run.Cycles default_cycles;
    probe = Run.Every_ms 500.0;
    audit = Some default_audit;
    faults = Some default_faults;
  }

let quick_cycles = { Run.cycles = 3; cycle_ms = 4000.0; tail_ms = 6000.0 }

(* A CI-sized run (tens of thousands of probes, a few seconds of wall
   time) with every mechanism still exercised. *)
let quick_config =
  {
    default_config with
    flows = 12;
    updates = 18;
    burst = 3;
    churn = Run.Per_cycle 1;
    pacing = Run.Cycles quick_cycles;
    audit = Some { default_audit with tw_mean_gap_ms = 2.5; tw_stop_ms = 2000.0 };
    faults =
      Some
        { default_faults with
          window_ms = 1600.0; element_failures = 1; deadline_ms = Some 1800.0 };
  }

let pp ppf (r : Run.result) =
  let rc = r.r_recovery in
  Format.fprintf ppf
    "@[<v>soak %s: %d cycles, %.0f ms simulated in %.1f s wall (%d events)@,\
     updates: %d pushed, %d completed (p50 %.1f ms, p99 %.1f ms), %d churned@,\
     recovery: retx=%d reroutes=%d resyncs=%d aborts=%d give-ups=%d \
     withdrawals=%d failures=%d@,\
     %a@,\
     stuck=%d leaks=%d invariant-violations=%d -> %s@]"
    r.r_topology (List.length r.r_cycles) r.r_sim_ms r.r_wall_s r.r_events r.r_pushed
    r.r_completed r.r_p50_ms r.r_p99_ms r.r_churned rc.P4update.Controller.retransmissions
    rc.P4update.Controller.reroutes rc.P4update.Controller.resyncs
    rc.P4update.Controller.aborts rc.P4update.Controller.give_ups r.r_withdrawals
    r.r_element_failures (Format.pp_print_option Traffic.pp) r.r_traffic
    (List.length r.r_stuck) (List.length r.r_leaks) (List.length r.r_violations)
    (if Run.ok r then "OK" else "BREACH")

let report_lines (r : Run.result) =
  List.concat
    [
      List.map
        (fun (c : Run.cycle) ->
          Printf.sprintf
            "soak cycle %2d: injected=%d pending-events=%d flows=%d in-flight=%d \
             violations=%d"
            c.cy_index c.cy_injected c.cy_pending_events c.cy_flows c.cy_in_flight
            c.cy_violations)
        r.r_cycles;
      List.map
        (fun (f, v) -> Printf.sprintf "soak STUCK: flow %d version %d unresolved" f v)
        r.r_stuck;
      List.map (fun s -> "soak LEAK: " ^ s) r.r_leaks;
      List.map
        (fun v -> "soak VIOLATION: " ^ Invariants.violation_to_string v)
        r.r_violations;
      List.map (fun s -> "soak trend: " ^ s) (Obs.Timeseries.trend_lines r.r_series);
    ]
