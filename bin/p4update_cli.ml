(* Command-line front end: inspect topologies, run individual update
   scenarios, regenerate the paper's figures, and stress the plane with
   the scale engine.

   Each subcommand passes the library entry point it calls exactly what
   that entry point reads.  [scale] (an open run) and [soak] (a cycled
   one) are presets over one [Harness.Run.workload].  Flag specs shared
   across subcommands, the per-run flight recorder of scale, soak and
   chaos, and the uniform exit-code table live in {!Cli_common}.

   Examples:
     p4update topo --name b4
     p4update single --topo internet2 --system all --runs 10
     p4update multi --topo fat-tree --system p4update
     p4update fig --id 7c
     p4update scale --topo chinanet --updates 2000
     p4update scale --audit --updates 50
     p4update soak --quick --live
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

let summarize ~seed ~runs setup systems =
  List.iter
    (fun sys ->
      print_endline
        (Harness.Stats.summary (Harness.Scenarios.system_name sys)
           (Harness.Scenarios.sample ~seed ~runs setup sys)))
    systems

let print_paths (old_path, new_path) =
  let show path = String.concat ";" (List.map string_of_int path) in
  Printf.printf "[%s] -> [%s]\n" (show old_path) (show new_path)

let single_cmd =
  let run (name, build) system seed runs =
    Printf.printf "single-flow update on %s: " name;
    print_paths (Harness.Scenarios.single_paths (build ()));
    summarize ~seed ~runs (Harness.Scenarios.single build) (systems_of system)
  in
  Cmd.v (cmd_info "single" ~doc:"Run the single-flow (straggler) scenario.")
    Term.(const run $ topo_arg () $ system_arg $ seed_arg ~default:scenario_seed_base
          $ runs_arg)

let multi_cmd =
  let run (name, build) system seed runs =
    Printf.printf "multi-flow update on %s (congested, near capacity)\n" name;
    summarize ~seed ~runs (Harness.Scenarios.multi ~headroom:1.4 build) (systems_of system)
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
  let runs_arg =
    Arg.(value & opt (some natural) None
         & info [ "runs"; "r" ] ~docv:"N"
             ~absent:(string_of_int Harness.Scenarios.runs)
             ~doc:"Number of seeded runs (Figs. 4 and 7 only).")
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
  let fig8 ~iterations ~congestion =
    print_string
      (Harness.Experiments.render_fig8 ~congestion
         (Harness.Experiments.run_fig8 ~iterations ~congestion))
  in
  (* Every figure and --phases fixes its own seeds; only Figs. 4 and 7
     read a run count.  A figure id, --phases or --runs the run cannot
     use is a usage error. *)
  let run id runs phases =
    let sc = fig7 id in
    if sc = None && not (List.mem id [ "2"; "4"; "8a"; "8b" ]) then
      `Error (true, Printf.sprintf "unknown figure id %S (2, 4, 7a..7f, 8a, 8b)" id)
    else if phases && sc = None then
      `Error (true, Printf.sprintf "--phases needs a Fig. 7 scenario id (7a..7f), got %S" id)
    else if runs <> None && (phases || (sc = None && id <> "4")) then
      `Error
        ( true,
          Printf.sprintf "--runs applies to Figs. 4 and 7a..7f only, not %s"
            (if phases then "--phases" else "Fig. " ^ id) )
    else begin
      let runs = Option.value runs ~default:Harness.Scenarios.runs in
      (match (sc, id) with
       | Some sc, _ when phases ->
         print_string
           (Harness.Experiments.render_phase_breakdown
              (Harness.Experiments.run_phase_breakdown sc Harness.Scenarios.P4u))
       | Some sc, _ ->
         print_string (Harness.Experiments.render_fig7 (Harness.Experiments.run_fig7 ~runs sc))
       | None, "2" ->
         print_string (Harness.Experiments.render_fig2 (Harness.Experiments.run_fig2 ()))
       | None, "4" ->
         print_string (Harness.Experiments.render_fig4 (Harness.Experiments.run_fig4 ~runs))
       | None, "8a" -> fig8 ~iterations:1000 ~congestion:false
       | None, _ -> fig8 ~iterations:100 ~congestion:true);
      `Ok ()
    end
  in
  Cmd.v (cmd_info "fig" ~doc:"Regenerate one evaluation figure.")
    Term.(ret (const run $ id_arg $ runs_arg $ phases_arg))

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
    let result = Harness.Traced.run ~trace:(Obs.Trace.create ~exclude ()) ~seed setup sys in
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
  let runs_arg =
    Arg.(value & opt (some natural) None
         & info [ "runs"; "r" ] ~docv:"N" ~absent:"10"
             ~doc:"Run seeds 1 to N (not with $(b,--seed)).")
  in
  (* Overrides of the fault model, Run_config.default_faults. *)
  let settings =
    settings_term
      [ switch [ "no-recovery" ]
          ~doc:"Disable the controller's \xc2\xa711 recovery loop (watchdog alarms only)."
          (fun f -> Ok { f with Harness.Run_config.recovery = No_recovery }) ]
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Trace each degraded run (every injected fault is a fault.* instant) \
                   and write Chrome trace JSON; with several runs, FILE gets the \
                   scenario and seed appended.")
  in
  let run_all (faults : Harness.Run_config.faults) scenario seed runs trace_out incident_dir =
    let scenarios =
      match scenario with Some sc -> [ sc ] | None -> Harness.Chaos.all_scenarios
    in
    let seeds =
      match seed with
      | Some s -> [ s ]
      | None -> List.init (Option.value runs ~default:10) (fun i -> i + 1)
    in
    let single = List.length scenarios = 1 && List.length seeds = 1 in
    let failed = ref 0 in
    List.iter
      (fun sc ->
        List.iter
          (fun seed ->
            let trace =
              Option.map (fun _ -> Obs.Trace.create ~exclude:[ "sim"; "net"; "p4rt" ] ()) trace_out
            in
            (* The recorder rides the degraded run and its baseline: a
               baseline-run violation is every bit as reportable. *)
            let r =
              with_recorder incident_dir (fun () -> Harness.Chaos.run ?trace ~faults ~seed sc)
            in
            (match (trace_out, trace) with
            | Some path, Some sink ->
              let path =
                if single then path
                else
                  let ext = match Filename.extension path with "" -> ".json" | e -> e in
                  Printf.sprintf "%s.%s.%d%s" (Filename.remove_extension path)
                    (Harness.Chaos.scenario_name sc) seed ext
              in
              write_file path (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events sink));
              Printf.printf "trace: %d events -> %s\n"
                (List.length (Obs.Trace.events sink)) path
            | _ -> ());
            print_endline (Harness.Chaos.report_line r);
            print_violations r.Harness.Chaos.r_violations;
            if faults.recovery <> No_recovery && not (Harness.Chaos.ok r) then incr failed)
          seeds)
      scenarios;
    if !failed > 0 then exit 1
  in
  let run scenario seed runs settings trace_out incident_dir =
    match settings Harness.Run_config.default_faults with
    | Error msg -> `Error (true, msg)
    | Ok _ when seed <> None && runs <> None ->
      `Error (true, "--runs sets a seed range, which --seed replaces")
    | Ok faults -> `Ok (run_all faults scenario seed runs trace_out incident_dir)
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:
         "Run seeded chaos schedules (both-plane faults plus link/node failures) and check \
          the Thm. 1-4 invariants and convergence.")
    Term.(ret
            (const run $ scenario_arg $ seed_arg $ runs_arg $ settings $ trace_out_arg
             $ incident_dir_arg))

(* --- mc --- *)

let mc_cmd =
  let names = String.concat ", " (List.map (fun s -> s.Mc.Scenario.sc_name) Mc.Scenario.all) in
  let scenario_conv =
    let parse s =
      match Mc.Scenario.find s with
      | Some sc -> Ok (Some sc)
      | None when s = "all" -> Ok None
      | None -> Error (`Msg (Printf.sprintf "unknown mc scenario %S (try: %s or all)" s names))
    in
    let print fmt = function
      | Some sc -> Format.pp_print_string fmt sc.Mc.Scenario.sc_name
      | None -> Format.pp_print_string fmt "all"
    in
    Arg.conv (parse, print)
  in
  let scenario_arg =
    Arg.(value & opt scenario_conv None
         & info [ "scenario" ] ~docv:"SC"
             ~doc:(Printf.sprintf "Scenario to check: %s or all (default)." names))
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
    let scenarios = match scenario with None -> Mc.Scenario.all | Some sc -> [ sc ] in
    let bounds =
      { Mc.Explore.b_max_depth = depth;
        b_max_schedules = max_schedules;
        b_por = not no_por }
    in
    let found = ref false in
    List.iter
      (fun sc ->
        let r = Mc.Explore.check ~bounds ?window ~unsafe sc in
        print_endline (Mc.Explore.verdict_line r);
        (* Replay the minimized counterexample, or the default schedule
           when there is none. *)
        let schedule, what, hint =
          match r.Mc.Explore.r_verdict with
          | Mc.Explore.Found cex ->
            found := true;
            (cex.Mc.Explore.cex_schedule, "counterexample", " (load at https://ui.perfetto.dev)")
          | _ -> ([], "default-schedule", "")
        in
        Option.iter
          (fun path ->
            let sink = Obs.Trace.create ~exclude:[ "sim" ] () in
            Mc.Explore.replay ~unsafe sc ~window:r.Mc.Explore.r_window_ms schedule sink;
            write_file path (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events sink));
            Printf.printf "%s replay: %d events -> %s%s\n" what
              (List.length (Obs.Trace.events sink)) path hint)
          trace_out)
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

(* --- scale and soak: the two run families --- *)

let scale_cmd =
  let d = Harness.Scale.default_workload in
  let rotation_only flag set (wl : Harness.Run.workload) =
    match wl.source with
    | Rotation -> Ok (set wl)
    | Intent -> Error (flag ^ " applies to --source rotation only")
  in
  let settings =
    settings_term
      [ source_setting;
        switch [ "audit" ]
          ~doc:"Race per-flow probe traffic against the bursts and audit every \
                packet's trajectory for per-packet consistency (old/new path, \
                mixed, loops, blackholes), reporting delivery rate, latency \
                percentiles and a deterministic outcome digest."
          (fun (wl : Harness.Run.workload) ->
            Ok { wl with audit = Some Harness.Traffic.default_workload });
        gap_setting
          ~absent:(Printf.sprintf "%g" Harness.Traffic.default_workload.tw_mean_gap_ms);
        switch [ "constant-rate" ]
          ~doc:"Constant inter-packet gaps instead of Poisson (with $(b,--audit))."
          (audited "--constant-rate" (fun a -> { a with tw_poisson = false }));
        updates_setting [ "updates"; "u" ] ~doc:"Total updates to drive."
          ~absent:(string_of_int d.updates);
        flows_setting ~absent:(string_of_int d.flows);
        setting positive_float [ "arrival-mean" ] ~docv:"MS"
          ~doc:"Poisson mean between bursts (ms)."
          ~absent:(Printf.sprintf "%g" d.arrival_mean_ms)
          (fun arrival_mean_ms (wl : Harness.Run.workload) -> Ok { wl with arrival_mean_ms });
        setting positive_int [ "burst" ] ~docv:"N" ~doc:"Updates per arrival burst."
          ~absent:(string_of_int d.burst)
          (fun burst -> rotation_only "--burst" (fun wl -> { wl with burst }));
        setting probability [ "churn" ] ~docv:"P" ~doc:"Per-burst flow churn probability."
          ~absent:(match d.churn with Per_burst p -> Printf.sprintf "%g" p | Per_cycle _ -> "0")
          (fun p -> rotation_only "--churn" (fun wl -> { wl with churn = Per_burst p }));
        setting natural [ "probe-every" ] ~docv:"N"
          ~doc:"Invariant probe every N bursts (0 disables)."
          ~absent:(match d.probe with Every_bursts n -> string_of_int n | Every_ms _ -> "0")
          (fun n (wl : Harness.Run.workload) -> Ok { wl with probe = Every_bursts n }) ]
  in
  let run (name, build) seed settings incident_dir tick_ms series_out =
    match settings d with
    | Error msg -> `Error (true, msg)
    | Ok (wl : Harness.Run.workload) ->
      Printf.printf "scale run on %s: %d updates over %d flows%s (seed %d)\n" name
        wl.updates wl.flows
        (if Option.is_some wl.audit then ", probes audited" else "")
        seed;
      let r = run_workload ~incident_dir ~series_out ?tick_ms ~seed wl (build ()) in
      Format.printf "%a@." Harness.Scale.pp r;
      Option.iter (Format.printf "%a@." Harness.Traffic.pp) r.r_traffic;
      if not (Harness.Run.ok r) then begin
        print_violations r.r_violations;
        exit 1
      end;
      `Ok ()
  in
  Cmd.v
    (cmd_info "scale"
       ~doc:
         "Drive a many-concurrent-update workload (Poisson arrival bursts, flow churn, \
          sampled Thm. 1-4 invariant probes) over a WAN in one open run and report \
          completion-time percentiles and kernel/controller throughput; with \
          $(b,--audit), race audited probe traffic against the bursts.")
    Term.(ret
            (const run
             $ topo_arg ~default:("attmpls", Topo.Topologies.attmpls) ()
             $ seed_arg ~default:1 $ settings $ incident_dir_arg $ tick_ms_arg
             $ series_out_arg))

let soak_cmd =
  (* The flag's value in the default preset and in the --quick one. *)
  let preset (default, quick) show f =
    Printf.sprintf "%s, or %s with $(b,--quick)" (show (f default)) (show (f quick))
  in
  let configs = Harness.Soak.(default_config, quick_config) in
  let cycles = Harness.Soak.(default_cycles, quick_cycles) in
  let cycles_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "cycles" ] ~docv:"N" ~doc:"Number of soak cycles."
             ~absent:(preset cycles string_of_int (fun c -> c.cycles)))
  in
  let cycle_ms_arg =
    Arg.(value & opt (some positive_float) None
         & info [ "cycle-ms" ] ~docv:"MS" ~doc:"Length of one cycle (simulated ms)."
             ~absent:(preset cycles (Printf.sprintf "%g") (fun c -> c.cycle_ms)))
  in
  let settings =
    settings_term
      [ flows_setting ~absent:(preset configs string_of_int (fun wl -> wl.flows));
        updates_setting [ "updates-per-cycle"; "u" ] ~doc:"Updates pushed per cycle."
          ~absent:(preset configs string_of_int (fun wl -> wl.updates));
        gap_setting
          ~absent:(preset configs (Printf.sprintf "%g") (fun wl ->
                       (Option.get wl.audit).tw_mean_gap_ms));
        setting probability [ "fault-prob" ] ~docv:"P"
          ~doc:"Per-frame fault probability of control-typed frames, on links and \
                the control channel, in the window."
          ~absent:(preset configs (Printf.sprintf "%g") (fun wl ->
                       (Option.get wl.faults).channel))
          (fun p (wl : Harness.Run.workload) ->
            let set (f : Harness.Run_config.faults) = { f with control_link = p; channel = p } in
            Ok { wl with faults = Option.map set wl.faults });
        source_setting ]
  in
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Start from the CI-sized preset (tens of thousands of probes); \
                   explicit sizing flags still override it.")
  in
  let live_arg =
    Arg.(value & flag
         & info [ "live" ]
             ~doc:"Repaint a live text dashboard of the rolling SLO time-series \
                   (probe and completion rates, update-latency p50/p99, in-flight \
                   updates, recovery activity, heap footprint) at every simulated tick.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the per-cycle leak readings.")
  in
  let run (name, build) seed quick cycles cycle_ms settings live verbose incident_dir tick_ms
      series_out =
    let base, cyc =
      if quick then (Harness.Soak.quick_config, Harness.Soak.quick_cycles)
      else (Harness.Soak.default_config, Harness.Soak.default_cycles)
    in
    let cyc =
      { cyc with
        cycles = Option.value cycles ~default:cyc.cycles;
        cycle_ms = Option.value cycle_ms ~default:cyc.cycle_ms }
    in
    match settings { base with pacing = Cycles cyc } with
    | Error msg -> `Error (true, msg)
    | Ok (wl : Harness.Run.workload) ->
      Printf.printf
        "soak run on %s: %d cycles x %.0f ms, %d flows, faults + %s churn + probes%s \
         (seed %d)\n%!"
        name cyc.cycles cyc.cycle_ms wl.flows
        (match wl.source with Rotation -> "rotation" | Intent -> "intent")
        (if live then
           Printf.sprintf ", tick %.0f ms"
             (Option.value tick_ms ~default:(Harness.Run.default_tick_ms wl))
         else "")
        seed;
      let topo = build () in
      let title = "p4update soak " ^ topo.Topo.Topologies.name in
      (* The screen is cleared only on a terminal: a redirected log gets
         plain appended frames. *)
      let dashboard ts =
        if Out_channel.isatty stdout then print_string "\027[H\027[2J";
        print_string (Obs.Timeseries.render_top ~title ts);
        flush stdout
      in
      let on_window = if live then Some dashboard else None in
      let r = run_workload ~incident_dir ~series_out ?tick_ms ?on_window ~seed wl topo in
      if live then print_newline ();
      Format.printf "%a@." Harness.Soak.pp r;
      if verbose || not (Harness.Run.ok r) then
        List.iter print_endline (Harness.Soak.report_lines r);
      if not (Harness.Run.ok r) then begin
        Printf.printf "soak SLO breach\n";
        exit 1
      end;
      `Ok ()
  in
  Cmd.v
    (cmd_info "soak"
       ~doc:
         "Long-horizon soak: churn + rolling faults + sustained probe audits, cycle \
          after cycle, with leak and stuck-update readings at every cycle boundary. \
          Exits nonzero on any SLO breach (violation, stuck update or leak).")
    Term.(ret
            (const run
             $ topo_arg ()
             $ seed_arg ~default:1
             $ quick_arg $ cycles_arg $ cycle_ms_arg $ settings $ live_arg $ verbose_arg
             $ incident_dir_arg $ tick_ms_arg $ series_out_arg))

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

(* --- import --- *)

let import_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Topology Zoo GraphML file.")
  in
  let run file seed runs =
    let name = Filename.remove_extension (Filename.basename file) in
    (* A file that does not parse, an empty or disconnected graph, or one
       with no alternative path for the scenario is an input error. *)
    let topo, paths =
      try
        let topo = Topo.Graphml.to_topology ~name (Topo.Graphml.parse_file file) in
        (topo, Harness.Scenarios.single_paths topo)
      with
      | Topo.Graphml.Parse_error msg | Invalid_argument msg | Failure msg | Sys_error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 2
    in
    let g = topo.Topo.Topologies.graph in
    Printf.printf "%s: %d nodes, %d edges (imported)\n" name (Topo.Graph.node_count g)
      (Topo.Graph.edge_count g);
    print_string "single-flow scenario: ";
    print_paths paths;
    summarize ~seed ~runs (Harness.Scenarios.single (fun () -> topo))
      Harness.Scenarios.all_systems
  in
  Cmd.v
    (cmd_info "import"
       ~doc:"Import a Topology Zoo GraphML file and run the single-flow scenario on it.")
    Term.(const run $ file_arg $ seed_arg ~default:scenario_seed_base $ runs_arg)

let () =
  let doc = "P4Update (CoNEXT '21) reproduction toolkit" in
  let cmds =
    [ topo_cmd; single_cmd; multi_cmd; fig_cmd; trace_cmd; chaos_cmd; mc_cmd;
      scale_cmd; soak_cmd; intent_cmd; import_cmd ]
  in
  (* cmdliner resolves a unique prefix of a subcommand name, so a retired
     name such as [top] would run [topo].  Only exact names pass. *)
  let names = List.sort compare (List.map Cmd.name cmds) in
  (match List.find_opt (fun a -> a = "" || a.[0] <> '-') (List.tl (Array.to_list Sys.argv)) with
   | Some a when not (List.mem a names) ->
     Printf.eprintf
       "p4update: unknown command '%s', must be one of %s.\n\
        Try 'p4update --help' for more information.\n"
       a (String.concat ", " (List.map (Printf.sprintf "'%s'") names));
     exit Cmd.Exit.cli_error
   | _ -> ());
  exit (Cmd.eval (Cmd.group (cmd_info "p4update" ~doc) cmds))
