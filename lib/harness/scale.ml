(* Scale engine presets: an open run of Poisson bursts over a rotating
   flow population (see run.ml for the loop). *)

let default_workload =
  {
    Run.source = Run.Rotation;
    flows = 200;
    updates = 1000;
    burst = 8;
    arrival_mean_ms = 5.0;
    churn = Run.Per_burst 0.05;
    pacing = Run.Open 300_000.0;
    probe = Run.Every_bursts 25;
    audit = None;
    faults = None;
  }

let alt_paths = Run.alt_paths

let pp ppf (r : Run.result) =
  Format.fprintf ppf
    "@[<v>%s: %d/%d updates completed in %d bursts (%d underfilled, %.1f ms simulated)@,\
     completion p50 %.2f ms  p99 %.2f ms   churned %d  probes %d  violations %d@,\
     kernel: %d events, %.0f events/s   %.0f updates/s@]"
    r.r_topology r.r_completed r.r_pushed r.r_bursts r.r_underfilled r.r_sim_ms r.r_p50_ms
    r.r_p99_ms r.r_churned r.r_probes (List.length r.r_violations) r.r_events
    r.r_events_per_s r.r_updates_per_s
