(* Shared CLI building blocks.

   Every subcommand of [p4update_cli] historically copy-pasted its own
   --seed/--topo/--runs specs and observability flags; they are defined
   once here so all subcommands (and the bench front end) agree on flag
   names, docs and defaults, and a new cross-cutting flag lands
   everywhere at once.

   Exit codes, uniform across subcommands (see [exits]):
     0  success
     1  consistency / audit / SLO failure: Thm. 1-4 violation, per-packet
        audit violation, convergence failure, soak SLO breach, or (mc) a
        counterexample verdict inconsistent with --unsafe
     2  usage or input errors: unparseable intent programs/events
        (cmdliner itself reports flag errors as 124)
     3  bench regression: a --check run outside the baseline's tolerance
        band (the bench binary only)                                      *)

open Cmdliner

let topologies =
  [
    ("fig1", Topo.Topologies.fig1);
    ("fig2", Topo.Topologies.fig2);
    ("six-node", Topo.Topologies.six_node);
    ("b4", Topo.Topologies.b4);
    ("internet2", Topo.Topologies.internet2);
    ("attmpls", Topo.Topologies.attmpls);
    ("chinanet", Topo.Topologies.chinanet);
    ("fat-tree", fun () -> Topo.Topologies.fat_tree ());
  ]

let topo_conv =
  let parse s =
    match List.assoc_opt s topologies with
    | Some f -> Ok (s, f)
    | None ->
      Error (`Msg (Printf.sprintf "unknown topology %S (try: %s)" s
                     (String.concat ", " (List.map fst topologies))))
  in
  Arg.conv (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

let topo_arg ?(default = ("b4", Topo.Topologies.b4)) () =
  Arg.(value & opt topo_conv default
       & info [ "topo"; "t" ] ~docv:"NAME" ~doc:"Topology to use.")

let runs_arg =
  Arg.(value & opt int 10 & info [ "runs"; "r" ] ~docv:"N" ~doc:"Number of seeded runs.")

let seed_arg ~default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc:"Base simulation seed.")

(* The scenario runners historically number their runs 1000, 1001, ... *)
let scenario_seed_base = 1000

(* Shared observability flags: the long-horizon harnesses (scale,
   traffic, soak, chaos, top) all take the same four. *)
type obs_flags = {
  ob_no_recorder : bool;
  ob_incident_dir : string option;
  ob_tick_ms : float option;
  ob_series_out : string option;
}

let obs_term =
  let no_recorder_arg =
    Arg.(value & flag
         & info [ "no-recorder" ]
             ~doc:"Disable the always-on flight recorder for this run.")
  in
  let incident_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "incident-dir" ] ~docv:"DIR"
             ~doc:"Dump the flight recorder's retained window here as a \
                   Perfetto-loadable incident snapshot whenever a trigger fires \
                   (invariant violation, abort, give-up, stuck update, leak, \
                   SLO breach).")
  in
  let tick_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "tick-ms" ] ~docv:"MS"
             ~doc:"Rolling SLO time-series window length in simulated ms \
                   (default: the harness's own).")
  in
  let series_out_arg =
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE"
             ~doc:"Export the rolling SLO time-series as JSONL (one object per \
                   window).")
  in
  Term.(const (fun ob_no_recorder ob_incident_dir ob_tick_ms ob_series_out ->
            { ob_no_recorder; ob_incident_dir; ob_tick_ms; ob_series_out })
        $ no_recorder_arg $ incident_dir_arg $ tick_ms_arg $ series_out_arg)

(* One Run_config per invocation: flags override [Run_config.default]. *)
let cfg_of ~seed ?runs ?iterations ?congestion ?trace_sink ?fault_plan
    ?reorder_window_ms ?obs ?live_top ?intent_churn () =
  let recorder, incident_dir, tick_ms, series_out =
    match obs with
    | None -> (None, None, None, None)
    | Some o ->
      (Some (not o.ob_no_recorder), o.ob_incident_dir, o.ob_tick_ms, o.ob_series_out)
  in
  Harness.Run_config.make ~seed ?runs ?iterations ?congestion ?trace_sink
    ?fault_plan ?reorder_window_ms ?recorder ?incident_dir ?tick_ms ?series_out
    ?live_top ?intent_churn ()

let system_conv =
  let parse = function
    | "p4update" -> Ok (Some Harness.Scenarios.P4u)
    | "ez-segway" | "ez" -> Ok (Some Harness.Scenarios.Ez)
    | "central" -> Ok (Some Harness.Scenarios.Central)
    | "all" -> Ok None
    | s -> Error (`Msg (Printf.sprintf "unknown system %S (p4update | ez | central | all)" s))
  in
  let print fmt = function
    | Some s -> Format.pp_print_string fmt (Harness.Scenarios.system_name s)
    | None -> Format.pp_print_string fmt "all"
  in
  Arg.conv (parse, print)

let system_arg =
  Arg.(value & opt system_conv None
       & info [ "system"; "s" ] ~docv:"SYS" ~doc:"System to run (default: all three).")

let systems_of = function
  | Some s -> [ s ]
  | None -> Harness.Scenarios.all_systems

let exits =
  Cmd.Exit.info 1
    ~doc:"on a consistency failure: a Thm. 1-4 invariant violation, a \
          per-packet audit violation, convergence failure or soak SLO breach."
  :: Cmd.Exit.info 2 ~doc:"on unparseable input (intent programs, events)."
  :: Cmd.Exit.defaults

(* [Cmd.info] with the uniform exit-code table attached. *)
let cmd_info name ~doc = Cmd.info name ~doc ~exits

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
