(* Command-line front end: inspect topologies, run individual update
   scenarios, regenerate the paper's figures, and stress the plane with
   the scale engine.

   Every subcommand builds exactly one [Harness.Run_config.t] from its
   flags and hands it to the library — the CLI owns flag parsing, the
   config record owns the knobs.  Flag specs shared across subcommands
   (--seed/--topo/--runs, the observability four) and the
   uniform exit-code table live in {!Cli_common}.

   Examples:
     p4update topo --name b4
     p4update single --topo internet2 --system all --runs 10
     p4update multi --topo fat-tree --system p4update
     p4update fig --id 7c
     p4update scale --topo chinanet --updates 2000
*)

open Cmdliner
open Cli_common

(* --- topo --- *)

let topo_cmd =
  let run (name, build) =
    let topo = build () in
    let g = topo.Topo.Topologies.graph in
    Printf.printf "%s: %d nodes, %d edges, controller at %s (node %d)\n" name
      (Topo.Graph.node_count g) (Topo.Graph.edge_count g)
      topo.Topo.Topologies.node_names.(topo.Topo.Topologies.controller)
      topo.Topo.Topologies.controller;
    List.iter
      (fun e ->
        Printf.printf "  %-20s -- %-20s %7.2f ms  cap %.1f\n"
          topo.Topo.Topologies.node_names.(e.Topo.Graph.u)
          topo.Topo.Topologies.node_names.(e.Topo.Graph.v)
          e.Topo.Graph.latency_ms e.Topo.Graph.capacity)
      (Topo.Graph.edges g)
  in
  Cmd.v (cmd_info "topo" ~doc:"Print a topology.") Term.(const run $ topo_arg ())

(* --- single / multi --- *)

let summarize cfg setup systems =
  List.iter
    (fun sys ->
      print_endline
        (Harness.Stats.summary (Harness.Scenarios.system_name sys)
           (Harness.Scenarios.sample cfg setup sys)))
    systems

let print_paths (old_path, new_path) =
  let show path = String.concat ";" (List.map string_of_int path) in
  Printf.printf "[%s] -> [%s]\n" (show old_path) (show new_path)

let single_cmd =
  let run (name, build) system seed runs =
    Printf.printf "single-flow update on %s: " name;
    print_paths (Harness.Scenarios.single_paths (build ()));
    summarize (cfg_of ~seed ~runs ()) (Harness.Scenarios.single build) (systems_of system)
  in
  Cmd.v (cmd_info "single" ~doc:"Run the single-flow (straggler) scenario.")
    Term.(const run $ topo_arg () $ system_arg $ seed_arg ~default:scenario_seed_base
          $ runs_arg)

let multi_cmd =
  let run (name, build) system seed runs =
    Printf.printf "multi-flow update on %s (congested, near capacity)\n" name;
    summarize (cfg_of ~seed ~runs ()) (Harness.Scenarios.multi ~headroom:1.4 build)
      (systems_of system)
  in
  Cmd.v (cmd_info "multi" ~doc:"Run the multi-flow (congestion) scenario.")
    Term.(const run $ topo_arg () $ system_arg $ seed_arg ~default:scenario_seed_base
          $ runs_arg)

(* --- fig --- *)

let fig_cmd =
  let id_arg =
    Arg.(required & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Figure id: 2, 4, 7a..7f, 8a, 8b.")
  in
  let runs_opt_arg =
    Arg.(value & opt (some int) None
         & info [ "runs"; "r" ] ~docv:"N"
             ~doc:"Number of seeded runs (default: the figure's own).")
  in
  let phases_arg =
    Arg.(value & flag
         & info [ "phases" ]
             ~doc:"For 7a..7f: trace one P4Update run and print the per-update \
                   phase breakdown instead of the CDFs.")
  in
  let fig7 id =
    List.find_opt
      (fun sc -> sc.Harness.Experiments.f7_id = id)
      (Harness.Experiments.fig7_scenarios ())
  in
  let run_figure cfg id =
    match id with
    | "2" -> print_string (Harness.Experiments.render_fig2 (Harness.Experiments.run_fig2 cfg))
    | "4" -> print_string (Harness.Experiments.render_fig4 (Harness.Experiments.run_fig4 cfg))
    | "8a" ->
      print_string
        (Harness.Experiments.render_fig8 ~congestion:false
           (Harness.Experiments.run_fig8 cfg))
    | "8b" ->
      let cfg =
        { cfg with Harness.Run_config.congestion = true; iterations = 100 }
      in
      print_string
        (Harness.Experiments.render_fig8 ~congestion:true
           (Harness.Experiments.run_fig8 cfg))
    | id ->
      (match fig7 id with
       | Some sc ->
         print_string (Harness.Experiments.render_fig7 (Harness.Experiments.run_fig7 cfg sc))
       | None -> Printf.eprintf "unknown figure id %S\n" id; exit 1)
  in
  let run id seed runs phases =
    (* Figures default to their published sample counts (Run_config.default);
       an explicit --runs overrides. *)
    let cfg = cfg_of ~seed ?runs () in
    if phases then
      match fig7 id with
      | Some sc ->
        let cfg = { cfg with Harness.Run_config.seed = scenario_seed_base } in
        print_string
          (Harness.Experiments.render_phase_breakdown
             (Harness.Experiments.run_phase_breakdown cfg sc Harness.Scenarios.P4u))
      | None ->
        Printf.eprintf "--phases needs a Fig. 7 scenario id (7a..7f), got %S\n" id;
        exit 1
    else run_figure cfg id
  in
  Cmd.v (cmd_info "fig" ~doc:"Regenerate one evaluation figure.")
    Term.(const run $ id_arg $ seed_arg ~default:Harness.Run_config.default.seed
          $ runs_opt_arg $ phases_arg)

(* --- trace --- *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the Chrome trace-event JSON here (Perfetto-loadable).")
  in
  let jsonl_arg =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE" ~doc:"Also write the raw JSONL event stream.")
  in
  let multi_arg =
    Arg.(value & flag
         & info [ "multi" ] ~doc:"Trace the multi-flow (congestion) scenario instead.")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Include the scheduler / packet / pipeline categories \
                   (sim, net, p4rt) that are filtered out by default.")
  in
  let run (name, build) system seed out jsonl multi full =
    let sys = match system with Some s -> s | None -> Harness.Scenarios.P4u in
    let exclude = if full then [] else [ "sim"; "net"; "p4rt" ] in
    let cfg = cfg_of ~seed ~trace_sink:(Obs.Trace.create ~exclude ()) () in
    let sys_name = Harness.Scenarios.system_name sys in
    let setup =
      if multi then begin
        Printf.printf "tracing multi-flow update on %s (%s, seed %d)\n" name sys_name seed;
        Harness.Scenarios.multi ~headroom:1.4 build
      end
      else begin
        Printf.printf "tracing single-flow update on %s (%s, seed %d): " name sys_name seed;
        print_paths (Harness.Scenarios.single_paths (build ()));
        Harness.Scenarios.single build
      end
    in
    let result = Harness.Traced.run cfg setup sys in
    write_file out
      (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events result.Harness.Traced.tr_sink));
    Printf.printf "completion: %.2f ms\n" result.Harness.Traced.tr_completion_ms;
    Printf.printf "wrote %s (%d events; load it at https://ui.perfetto.dev)\n" out
      (List.length (Obs.Trace.events result.Harness.Traced.tr_sink));
    (match jsonl with
     | Some path ->
       write_file path (Obs.Trace.to_jsonl result.Harness.Traced.tr_sink);
       Printf.printf "wrote %s\n" path
     | None -> ());
    match result.Harness.Traced.tr_phases with
    | [] ->
      print_endline
        "no per-update phase breakdown (span tree incomplete — is this a baseline system?)"
    | rows ->
      print_newline ();
      print_string (Harness.Traced.render_phases rows)
  in
  Cmd.v
    (cmd_info "trace"
       ~doc:
         "Run one scenario with the tracing sink installed; export a Chrome \
          trace (Perfetto) plus a per-update phase breakdown.")
    Term.(const run $ topo_arg () $ system_arg $ seed_arg ~default:scenario_seed_base
          $ out_arg $ jsonl_arg $ multi_arg $ full_arg)

(* --- chaos --- *)

let chaos_cmd =
  let scenario_conv =
    let parse s =
      match Harness.Chaos.scenario_of_string s with
      | Some sc -> Ok (Some sc)
      | None when s = "all" -> Ok None
      | None -> Error (`Msg (Printf.sprintf "unknown scenario %S (fig1 | b4 | fat-tree | all)" s))
    in
    let print fmt = function
      | Some sc -> Format.pp_print_string fmt (Harness.Chaos.scenario_name sc)
      | None -> Format.pp_print_string fmt "all"
    in
    Arg.conv (parse, print)
  in
  let scenario_arg =
    Arg.(value & opt scenario_conv None
         & info [ "scenario" ] ~docv:"SC" ~doc:"Scenario: fig1, b4, fat-tree or all.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"N" ~doc:"Run a single seed instead of a range.")
  in
  let no_recovery_arg =
    Arg.(value & flag
         & info [ "no-recovery" ]
             ~doc:"Disable the controller's \xc2\xa711 recovery loop (watchdog alarms only).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Trace each degraded run (faults tagged as chaos instants) and write \
                   Chrome trace JSON; with several runs, FILE gets the scenario and seed \
                   appended.")
  in
  let run scenario seed runs no_recovery trace_out obs =
    let fault_plan =
      { Harness.Run_config.default_faults with fp_recovery = not no_recovery }
    in
    let scenarios =
      match scenario with Some sc -> [ sc ] | None -> Harness.Chaos.all_scenarios
    in
    let seeds = match seed with Some s -> [ s ] | None -> List.init runs (fun i -> i + 1) in
    let single = List.length scenarios = 1 && List.length seeds = 1 in
    let failed = ref 0 in
    List.iter
      (fun sc ->
        List.iter
          (fun seed ->
            let trace_sink =
              match trace_out with
              | None -> None
              | Some _ -> Some (Obs.Trace.create ~exclude:[ "sim"; "net"; "p4rt" ] ())
            in
            let cfg = cfg_of ~seed ~fault_plan ?trace_sink ~obs () in
            let r = Harness.Chaos.run cfg ~scenario:sc in
            (match (trace_out, trace_sink) with
            | Some path, Some sink ->
              let path =
                if single then path
                else
                  Printf.sprintf "%s.%s.%d%s"
                    (Filename.remove_extension path)
                    (Harness.Chaos.scenario_name sc) seed
                    (let e = Filename.extension path in
                     if e = "" then ".json" else e)
              in
              write_file path (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events sink));
              Printf.printf "trace: %d events -> %s\n"
                (List.length (Obs.Trace.events sink)) path
            | _ -> ());
            print_endline (Harness.Chaos.report_line r);
            List.iter
              (fun v ->
                Printf.printf "  t=%.1fms flow=%d: %s\n" v.Harness.Chaos.v_time
                  v.Harness.Chaos.v_flow v.Harness.Chaos.v_what)
              r.Harness.Chaos.r_violations;
            if not no_recovery && not (Harness.Chaos.ok r) then incr failed)
          seeds)
      scenarios;
    if !failed > 0 then exit 1
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:
         "Run seeded chaos schedules (both-plane faults plus link/node failures) and check \
          the Thm. 1-4 invariants and convergence.")
    Term.(const run $ scenario_arg $ seed_arg $ runs_arg $ no_recovery_arg $ trace_out_arg
          $ obs_term)

(* --- mc --- *)

let mc_cmd =
  let scenario_arg =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"SC"
             ~doc:(Printf.sprintf "Scenario to check: %s or all (default)."
                     (String.concat ", "
                        (List.map (fun s -> s.Mc.Scenario.sc_name) Mc.Scenario.all))))
  in
  let window_arg =
    Arg.(value & opt (some float) None
         & info [ "window" ] ~docv:"MS"
             ~doc:"Reorder window in ms (default: per-scenario). Deliveries within \
                   WINDOW ms of the earliest pending event may be scheduled first.")
  in
  let depth_arg =
    Arg.(value & opt int Mc.Explore.default_bounds.Mc.Explore.b_max_depth
         & info [ "depth" ] ~docv:"N" ~doc:"Maximum branch points per schedule.")
  in
  let max_schedules_arg =
    Arg.(value & opt int Mc.Explore.default_bounds.Mc.Explore.b_max_schedules
         & info [ "max-schedules" ] ~docv:"N" ~doc:"Stop after exploring N schedules.")
  in
  let no_por_arg =
    Arg.(value & flag
         & info [ "no-por" ]
             ~doc:"Disable sleep-set partial-order reduction (to measure its effect).")
  in
  let unsafe_arg =
    Arg.(value & flag
         & info [ "unsafe" ]
             ~doc:"Toggle the scenario's DESIGN \xc2\xa74b fix OFF for the run: the checker \
                   must then find and minimize the historical violation.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Replay the (minimized) counterexample — or the default schedule if \
                   none — and write a Chrome trace with mc.choice instants.")
  in
  let run scenario window depth max_schedules no_por unsafe trace_out =
    let scenarios =
      match scenario with
      | None -> Mc.Scenario.all
      | Some name -> (
        match Mc.Scenario.find name with
        | Some sc -> [ sc ]
        | None ->
          Printf.eprintf "unknown mc scenario %S (try: %s)\n" name
            (String.concat ", " (List.map (fun s -> s.Mc.Scenario.sc_name) Mc.Scenario.all));
          exit 1)
    in
    (* The reorder window rides on the config; bounds keep the search
       knobs.  Scenario worlds pin their own seed (Scenario.default_cfg). *)
    let cfg =
      { Mc.Scenario.default_cfg with Harness.Run_config.reorder_window_ms = window }
    in
    let bounds =
      { Mc.Explore.b_max_depth = depth;
        b_max_schedules = max_schedules;
        b_por = not no_por }
    in
    let found = ref false in
    List.iter
      (fun sc ->
        let r = Mc.Explore.check ~bounds ~cfg ~unsafe sc in
        print_endline (Mc.Explore.verdict_line r);
        match r.Mc.Explore.r_verdict with
        | Mc.Explore.Found cex ->
          found := true;
          (match trace_out with
           | None -> ()
           | Some path ->
             let sink = Obs.Trace.create ~exclude:[ "sim" ] () in
             Mc.Explore.replay ~cfg ~unsafe sc ~window:r.Mc.Explore.r_window_ms
               cex.Mc.Explore.cex_schedule sink;
             write_file path (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events sink));
             Printf.printf "counterexample replay: %d events -> %s (load at \
                            https://ui.perfetto.dev)\n"
               (List.length (Obs.Trace.events sink)) path)
        | _ ->
          (match trace_out with
           | None -> ()
           | Some path ->
             let sink = Obs.Trace.create ~exclude:[ "sim" ] () in
             Mc.Explore.replay ~cfg ~unsafe sc ~window:r.Mc.Explore.r_window_ms [] sink;
             write_file path (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events sink));
             Printf.printf "default-schedule replay: %d events -> %s\n"
               (List.length (Obs.Trace.events sink)) path))
      scenarios;
    (* [--unsafe] succeeding means the violation WAS found; plain runs
       succeed when no violation exists. *)
    if unsafe && not !found then exit 1;
    if (not unsafe) && !found then exit 1
  in
  Cmd.v
    (cmd_info "mc"
       ~doc:
         "Systematically model-check delivery interleavings of a scenario against the \
          Thm. 1-4 invariants (sleep-set POR, fingerprint pruning, counterexample \
          minimization).")
    Term.(const run $ scenario_arg $ window_arg $ depth_arg $ max_schedules_arg
          $ no_por_arg $ unsafe_arg $ trace_out_arg)

(* --- scale --- *)

let scale_cmd =
  let d = Harness.Scale.default_workload in
  let updates_arg =
    Arg.(value & opt int d.updates
         & info [ "updates"; "u" ] ~docv:"N" ~doc:"Total updates to drive.")
  in
  let flows_arg =
    Arg.(value & opt int d.flows
         & info [ "flows" ] ~docv:"N" ~doc:"Concurrent flow population.")
  in
  let arrival_arg =
    Arg.(value & opt float d.arrival_mean_ms
         & info [ "arrival-mean" ] ~docv:"MS" ~doc:"Poisson mean between bursts (ms).")
  in
  let burst_arg =
    Arg.(value & opt int d.burst
         & info [ "burst" ] ~docv:"N" ~doc:"Updates per arrival burst.")
  in
  let churn_arg =
    let p = match d.churn with Harness.Run.Per_burst p -> p | Per_cycle _ -> 0.0 in
    Arg.(value & opt float p
         & info [ "churn" ] ~docv:"P" ~doc:"Per-burst flow churn probability.")
  in
  let probe_arg =
    let n = match d.probe with Harness.Run.Every_bursts n -> n | Every_ms _ -> 0 in
    Arg.(value & opt int n
         & info [ "probe-every" ] ~docv:"N"
             ~doc:"Invariant probe every N bursts (0 disables).")
  in
  let intent_churn_arg =
    Arg.(value & flag
         & info [ "intent-churn" ]
             ~doc:"Source churn from the intent layer (seeded drain/undrain \
                   cycles and TE re-pins compiled into correlated bursts) \
                   instead of Poisson path flips.")
  in
  let run (name, build) seed updates flows arrival_mean burst churn probe_every
      intent_churn obs =
    let cfg = cfg_of ~seed ~obs ~intent_churn () in
    let workload =
      { d with
        updates; flows; arrival_mean_ms = arrival_mean; burst;
        churn = Per_burst churn; probe = Every_bursts probe_every }
    in
    Printf.printf "scale run on %s: %d updates over %d flows (seed %d)\n" name updates
      flows seed;
    let r = Harness.Run.run workload cfg (build ()) in
    Format.printf "%a@." Harness.Scale.pp r;
    if r.r_violations <> [] then begin
      List.iter
        (fun v ->
          Printf.printf "  t=%.1fms flow=%d: %s\n" v.Harness.Invariants.v_time
            v.Harness.Invariants.v_flow v.Harness.Invariants.v_what)
        r.r_violations;
      exit 1
    end
  in
  Cmd.v
    (cmd_info "scale"
       ~doc:
         "Drive a many-concurrent-update workload (Poisson arrival bursts, flow churn, \
          sampled Thm. 1-4 invariant probes) over a WAN and report completion-time \
          percentiles and kernel/controller throughput.")
    Term.(const run
          $ topo_arg ~default:("attmpls", Topo.Topologies.attmpls) ()
          $ seed_arg ~default:Harness.Run_config.default.seed
          $ updates_arg $ flows_arg $ arrival_arg $ burst_arg $ churn_arg $ probe_arg
          $ intent_churn_arg $ obs_term)

(* --- traffic --- *)

let traffic_cmd =
  let d = Harness.Scale.default_workload in
  let updates_arg =
    Arg.(value & opt int d.updates
         & info [ "updates"; "u" ] ~docv:"N" ~doc:"Total updates to drive.")
  in
  let flows_arg =
    Arg.(value & opt int d.flows
         & info [ "flows" ] ~docv:"N" ~doc:"Concurrent flow population.")
  in
  let gap_arg =
    Arg.(value & opt float Harness.Traffic.default_workload.Harness.Traffic.tw_mean_gap_ms
         & info [ "gap-mean" ] ~docv:"MS" ~doc:"Per-flow mean inter-packet gap (ms).")
  in
  let constant_arg =
    Arg.(value & flag
         & info [ "constant-rate" ]
             ~doc:"Constant inter-packet gaps instead of Poisson.")
  in
  let stop_arg =
    Arg.(value & opt float Harness.Traffic.default_workload.Harness.Traffic.tw_stop_ms
         & info [ "stop" ] ~docv:"MS" ~doc:"Stop injecting at this simulated time.")
  in
  let run (name, build) seed updates flows gap_mean constant stop obs =
    let cfg = cfg_of ~seed ~obs () in
    let audit =
      { Harness.Traffic.default_workload with
        tw_mean_gap_ms = gap_mean; tw_poisson = not constant; tw_stop_ms = stop }
    in
    Printf.printf
      "traffic run on %s: probes racing %d updates over %d flows (seed %d)\n" name
      updates flows seed;
    let r = Harness.Run.run { d with updates; flows; audit = Some audit } cfg (build ()) in
    Format.printf "%a@.%a@." Harness.Scale.pp r
      (Format.pp_print_option Harness.Traffic.pp) r.r_traffic;
    if not (Harness.Run.ok r) then begin
      Printf.printf "per-packet or structural consistency violations detected\n";
      exit 1
    end
  in
  Cmd.v
    (cmd_info "traffic"
       ~doc:
         "Race sustained per-flow probe traffic against the scale engine's update \
          bursts and audit every packet's trajectory for per-packet consistency \
          (old/new path, mixed, loops, blackholes), reporting delivery rate, latency \
          percentiles and a deterministic outcome digest.")
    Term.(const run
          $ topo_arg ~default:("attmpls", Topo.Topologies.attmpls) ()
          $ seed_arg ~default:Harness.Run_config.default.seed
          $ updates_arg $ flows_arg $ gap_arg $ constant_arg $ stop_arg $ obs_term)

(* --- soak --- *)

let soak_cmd =
  let cyc = Harness.Soak.default_cycles in
  let cycles_arg =
    Arg.(value & opt int cyc.cycles
         & info [ "cycles" ] ~docv:"N" ~doc:"Number of soak cycles.")
  in
  let cycle_ms_arg =
    Arg.(value & opt float cyc.cycle_ms
         & info [ "cycle-ms" ] ~docv:"MS" ~doc:"Length of one cycle (simulated ms).")
  in
  let population_arg =
    Arg.(value & opt int Harness.Soak.default_config.flows
         & info [ "flows" ] ~docv:"N" ~doc:"Concurrent flow population.")
  in
  let updates_arg =
    Arg.(value & opt int Harness.Soak.default_config.updates
         & info [ "updates-per-cycle"; "u" ] ~docv:"N" ~doc:"Updates pushed per cycle.")
  in
  let gap_arg =
    Arg.(value & opt float Harness.Soak.default_audit.tw_mean_gap_ms
         & info [ "gap-mean" ] ~docv:"MS" ~doc:"Per-flow mean probe gap (ms).")
  in
  let fault_arg =
    Arg.(value & opt float Harness.Soak.default_faults.control_prob
         & info [ "fault-prob" ] ~docv:"P"
             ~doc:"Per-message control-plane fault probability in the window.")
  in
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"CI-sized preset (tens of thousands of probes).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the per-cycle leak readings.")
  in
  let churn_arg =
    Arg.(value
         & opt (enum [ ("poisson", false); ("intent", true) ]) false
         & info [ "churn" ] ~docv:"KIND"
             ~doc:"Churn source: $(b,poisson) flips random flow pairs \
                   independently; $(b,intent) drives seeded drain/undrain \
                   maintenance cycles and TE re-pins through the intent \
                   compiler, one correlated burst per event.")
  in
  let run (name, build) seed cycles cycle_ms population updates gap fault quick verbose
      intent_churn obs =
    let cyc = if quick then Harness.Soak.quick_cycles else { cyc with cycles; cycle_ms } in
    let config =
      if quick then Harness.Soak.quick_config
      else
        { Harness.Soak.default_config with
          flows = population; updates; pacing = Cycles cyc;
          audit = Some { Harness.Soak.default_audit with tw_mean_gap_ms = gap };
          faults = Some { Harness.Soak.default_faults with control_prob = fault } }
    in
    let cfg = cfg_of ~seed ~obs ~intent_churn () in
    Printf.printf
      "soak run on %s: %d cycles x %.0f ms, %d flows, faults + %s churn + probes (seed %d)\n"
      name cyc.cycles cyc.cycle_ms config.flows
      (if intent_churn then "intent" else "poisson")
      seed;
    let r = Harness.Run.run config cfg (build ()) in
    Format.printf "%a@." Harness.Soak.pp r;
    if verbose || not (Harness.Run.ok r) then
      List.iter print_endline (Harness.Soak.report_lines r);
    if not (Harness.Run.ok r) then begin
      Printf.printf "soak SLO breach\n";
      exit 1
    end
  in
  Cmd.v
    (cmd_info "soak"
       ~doc:
         "Long-horizon soak: churn + rolling faults + sustained probe audits, cycle \
          after cycle, with leak and stuck-update readings at every cycle boundary. \
          Exits nonzero on any SLO breach (violation, stuck update or leak).")
    Term.(const run
          $ topo_arg ()
          $ seed_arg ~default:Harness.Run_config.default.seed
          $ cycles_arg $ cycle_ms_arg $ population_arg $ updates_arg $ gap_arg
          $ fault_arg $ quick_arg $ verbose_arg $ churn_arg $ obs_term)

(* --- intent --- *)

let intent_cmd =
  let mode_arg =
    Arg.(required
         & pos 0
             (some (enum [ ("compile", `Compile); ("diff", `Diff); ("run", `Run) ]))
             None
         & info [] ~docv:"MODE"
             ~doc:"$(b,compile) prints the concrete path assignment; $(b,diff) \
                   applies the --event stream incrementally and prints every \
                   diff; $(b,run) additionally lowers each diff into one \
                   correlated update burst on a simulated world and audits it \
                   with live probe traffic (exit 1 on any violation).")
  in
  let file_arg =
    Arg.(required & opt (some file) None
         & info [ "file"; "f" ] ~docv:"FILE"
             ~doc:"Intent program (see examples/*.intent for the syntax).")
  in
  let event_arg =
    Arg.(value & opt_all string []
         & info [ "event"; "e" ] ~docv:"EVENT"
             ~doc:"Event to apply, repeatable, in order: 'drain U V', \
                   'undrain U V', 'link-down U V', 'link-up U V', \
                   'node-down X', 'node-up X', 'capacity U V C', \
                   'flow <intent line>' (add/replace), 'remove NAME'.")
  in
  let parse_event s =
    let fail () = failwith (Printf.sprintf "unparseable event %S" s) in
    let num w = match int_of_string_opt w with Some n -> n | None -> fail () in
    match String.split_on_char ' ' s |> List.filter (fun w -> w <> "") with
    | [ "drain"; u; v ] -> Intent.Compiler.Drain (num u, num v)
    | [ "undrain"; u; v ] -> Intent.Compiler.Undrain (num u, num v)
    | [ "link-down"; u; v ] -> Intent.Compiler.Link_down (num u, num v)
    | [ "link-up"; u; v ] -> Intent.Compiler.Link_up (num u, num v)
    | [ "node-down"; x ] -> Intent.Compiler.Node_down (num x)
    | [ "node-up"; x ] -> Intent.Compiler.Node_up (num x)
    | [ "capacity"; u; v; c ] ->
      (match float_of_string_opt c with
      | Some c -> Intent.Compiler.Capacity_set (num u, num v, c)
      | None -> fail ())
    | "flow" :: _ ->
      (match Intent.Lang.of_string s with
      | Ok { Intent.Lang.flows = [ fi ]; _ } -> Intent.Compiler.Set_flow fi
      | _ -> fail ())
    | [ "remove"; n ] -> Intent.Compiler.Remove_flow n
    | _ -> fail ()
  in
  let path_str p = String.concat "-" (List.map string_of_int p) in
  let members_str = function
    | [] -> "(unroutable)"
    | ms -> String.concat " | " (List.map path_str ms)
  in
  let print_assignment comp =
    List.iter
      (fun (name, ms) -> Printf.printf "  %-12s %s\n" name (members_str ms))
      (Intent.Compiler.assignment comp);
    (match Intent.Compiler.degraded comp with
    | [] -> ()
    | d -> Printf.printf "  degraded: %s\n" (String.concat ", " d));
    Printf.printf "  (%d flows, %d member paths)\n"
      (Intent.Compiler.flow_count comp)
      (Intent.Compiler.member_count comp)
  in
  let print_diff ev (d : Intent.Compiler.diff) =
    Printf.printf "%s: %d/%d flows recompiled, %d changed\n"
      (Intent.Compiler.event_to_string ev)
      d.Intent.Compiler.d_recomputed d.Intent.Compiler.d_flow_count
      (List.length d.Intent.Compiler.d_changes);
    List.iter
      (fun (ch : Intent.Compiler.change) ->
        Printf.printf "  %-12s %s -> %s\n" ch.Intent.Compiler.ch_name
          (members_str ch.Intent.Compiler.ch_old)
          (members_str ch.Intent.Compiler.ch_new))
      d.Intent.Compiler.d_changes
  in
  let run mode (name, build) seed file events =
    try
      let topo = build () in
      let program =
        match Intent.Lang.load file with
        | Ok p -> p
        | Error e ->
          Printf.eprintf "%s: %s\n" file e;
          exit 2
      in
      let events = List.map parse_event events in
      match mode with
      | `Compile ->
        let comp = Intent.Compiler.create topo.Topo.Topologies.graph program in
        Printf.printf "%s compiled on %s:\n" file name;
        print_assignment comp
      | `Diff ->
        let comp = Intent.Compiler.create topo.Topo.Topologies.graph program in
        List.iter (fun ev -> print_diff ev (Intent.Compiler.apply comp ev)) events;
        Printf.printf "final assignment:\n";
        print_assignment comp
      | `Run ->
        let w = Harness.World.make ~seed topo in
        let g = Netsim.graph w.Harness.World.net in
        let controller = w.Harness.World.controller in
        let comp = Intent.Compiler.create g program in
        let bridge = Intent.Bridge.create () in
        let install ~flow_id ~src ~dst ~size ~path =
          ignore (Harness.World.install_flow ~flow_id w ~src ~dst ~size ~path)
        in
        let retire ~flow_id = P4update.Controller.retire_flow controller ~flow_id in
        ignore
          (Intent.Bridge.lower bridge ~program
             ~diff:(Intent.Compiler.bootstrap_diff comp) ~install ~retire);
        Printf.printf "%s on %s: %d member flows installed (seed %d)\n" file name
          (Intent.Compiler.member_count comp) seed;
        let tr = Harness.Traffic.attach w in
        Harness.Traffic.start tr;
        let stop = ref 200.0 in
        Harness.Traffic.inject_until tr ~stop_ms:!stop;
        ignore (Harness.World.run ~until:150.0 w);
        let pushed = ref 0 in
        List.iter
          (fun ev ->
            let d = Intent.Compiler.apply comp ev in
            let reqs =
              Intent.Bridge.lower bridge
                ~program:(Intent.Compiler.program comp) ~diff:d ~install ~retire
            in
            let prepared = P4update.Controller.prepare_batch controller reqs in
            print_diff ev d;
            Printf.printf "  -> burst of %d updates\n" (List.length prepared);
            List.iter (P4update.Controller.push controller) prepared;
            pushed := !pushed + List.length prepared;
            stop := !stop +. 250.0;
            Harness.Traffic.inject_until tr ~stop_ms:!stop;
            ignore (Harness.World.run ~until:(!stop -. 50.0) w))
          events;
        ignore (Harness.World.run w);
        Harness.Traffic.drain tr;
        let s = Harness.Traffic.finalize tr in
        Format.printf "%a@." Harness.Traffic.pp s;
        let v = Harness.Traffic.violations s in
        Printf.printf "%d updates pushed, %d audit violations\n" !pushed v;
        if v > 0 then exit 1
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  Cmd.v
    (cmd_info "intent"
       ~doc:
         "Compile a declarative intent program (shortest-path, waypoint, ECMP \
          spread, drains) to concrete member paths, replay topology/intent \
          events through the incremental recompiler, and optionally lower the \
          diffs into audited consistent-update bursts.")
    Term.(const run $ mode_arg $ topo_arg () $ seed_arg ~default:7 $ file_arg
          $ event_arg)

(* --- top --- *)

let top_cmd =
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"CI-sized soak preset instead of the full one.")
  in
  let cycles_arg =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N" ~doc:"Override the number of soak cycles.")
  in
  let run (name, build) seed quick cycles obs =
    let base, cyc =
      if quick then (Harness.Soak.quick_config, Harness.Soak.quick_cycles)
      else (Harness.Soak.default_config, Harness.Soak.default_cycles)
    in
    let cyc = match cycles with None -> cyc | Some n -> { cyc with cycles = n } in
    let config = { base with pacing = Cycles cyc } in
    let cfg = cfg_of ~seed ~obs ~live_top:true () in
    Printf.printf "top: soak on %s, %d cycles x %.0f ms, tick %.0f ms (seed %d)\n%!"
      name cyc.cycles cyc.cycle_ms
      (Option.value obs.ob_tick_ms ~default:(Harness.Run.default_tick_ms config)) seed;
    let r = Harness.Run.run config cfg (build ()) in
    print_newline ();
    Format.printf "%a@." Harness.Soak.pp r;
    if not (Harness.Run.ok r) then begin
      List.iter print_endline (Harness.Soak.report_lines r);
      exit 1
    end
  in
  Cmd.v
    (cmd_info "top"
       ~doc:
         "Run a soak with the live text dashboard: the rolling SLO time-series \
          (probe and completion rates, update-latency p50/p99, in-flight updates, \
          recovery activity, heap footprint) re-rendered at every simulated tick.")
    Term.(const run
          $ topo_arg ()
          $ seed_arg ~default:Harness.Run_config.default.seed
          $ quick_arg $ cycles_arg $ obs_term)

(* --- import --- *)

let import_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Topology Zoo GraphML file.")
  in
  let run file seed runs =
    let cfg = cfg_of ~seed ~runs () in
    let name = Filename.remove_extension (Filename.basename file) in
    let topo = Topo.Graphml.to_topology ~name (Topo.Graphml.parse_file file) in
    let g = topo.Topo.Topologies.graph in
    Printf.printf "%s: %d nodes, %d edges (imported)\n" name (Topo.Graph.node_count g)
      (Topo.Graph.edge_count g);
    print_string "single-flow scenario: ";
    print_paths (Harness.Scenarios.single_paths topo);
    summarize cfg (Harness.Scenarios.single (fun () -> topo)) Harness.Scenarios.all_systems
  in
  Cmd.v
    (cmd_info "import"
       ~doc:"Import a Topology Zoo GraphML file and run the single-flow scenario on it.")
    Term.(const run $ file_arg $ seed_arg ~default:scenario_seed_base $ runs_arg)

let () =
  let doc = "P4Update (CoNEXT '21) reproduction toolkit" in
  exit
    (Cmd.eval
       (Cmd.group (cmd_info "p4update" ~doc)
          [ topo_cmd; single_cmd; multi_cmd; fig_cmd; trace_cmd; chaos_cmd; mc_cmd;
            scale_cmd; traffic_cmd; soak_cmd; intent_cmd; top_cmd; import_cmd ]))
