(* Shared CLI building blocks.

   Every flag that more than one subcommand takes is declared once
   here, so the subcommands agree on its name, doc, default and
   validation, and a new cross-cutting flag lands everywhere at once.

   Exit codes, uniform across subcommands (see [exits]):
     0  success
     1  consistency / audit / SLO failure: Thm. 1-4 violation, per-packet
        audit violation, convergence failure, soak SLO breach, or (mc) a
        counterexample verdict inconsistent with --unsafe
     2  input errors: unparseable intent programs or events, a GraphML
        file import cannot use, or a run workload the run loop rejects
   124  usage errors (cmdliner's): a refused flag or run setting, or a
        subcommand name that is not exact                              *)

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

let seed_arg ~default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc:"Base simulation seed.")

(* The scenario runners historically number their runs 1000, 1001, ... *)
let scenario_seed_base = 1000

(* Validating converters: a value no run can use is a usage error
   (exit 124), not an exception or a hang deep inside a simulation. *)
let checked conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~what:"a positive integer" (fun n -> n > 0)
let natural = checked Arg.int ~what:"a non-negative integer" (fun n -> n >= 0)

let runs_arg =
  Arg.(value & opt natural 10 & info [ "runs"; "r" ] ~docv:"N" ~doc:"Number of seeded runs.")

let positive_float =
  checked Arg.float ~what:"a positive finite number" (fun x -> Float.is_finite x && x > 0.0)

let probability =
  checked Arg.float ~what:"a probability in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)

(* --incident-dir: every run with a flight recorder (scale, soak,
   chaos). *)
let incident_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "incident-dir" ] ~docv:"DIR"
           ~doc:"Dump the flight recorder's retained window here as a \
                 Perfetto-loadable incident snapshot whenever a trigger fires \
                 (invariant violation, abort, give-up, stuck update, leak, \
                 SLO breach).")

(* The flight recorder is the process's one global, so it is installed
   here at the process edge, never by the library: [with_recorder
   incident_dir f] runs [f ()] under a fresh recorder and removes it
   when [f] returns or raises.  Recording never changes a run. *)
let with_recorder incident_dir f =
  Obs.Flight_recorder.install (Obs.Flight_recorder.create ?incident_dir ());
  Fun.protect ~finally:Obs.Flight_recorder.uninstall f

(* --tick-ms and --series-out: the runs that keep a rolling SLO series
   (scale, soak). *)
let tick_ms_arg =
  Arg.(value & opt (some positive_float) None
       & info [ "tick-ms" ] ~docv:"MS"
           ~doc:"Rolling SLO time-series window length in simulated ms \
                 (default: 1000 for scale, 500 for soak).")

let series_out_arg =
  Arg.(value & opt (some string) None
       & info [ "series-out" ] ~docv:"FILE"
           ~doc:"Export the rolling SLO time-series as JSONL (one object per \
                 window).")

(* --- run settings --------------------------------------------------- *)

(* A run setting is a flag that, when given, changes the preset its
   subcommand starts from (a run workload, or chaos's fault model), or
   refuses to with a reason.  Nothing is accepted and then ignored: a
   setting the run would not read is refused. *)
type 'a setting = ('a -> ('a, string) result) Term.t

let setting parse names ~docv ~doc ~absent set : _ setting =
  Term.(const (fun v wl -> match v with None -> Ok wl | Some v -> set v wl)
        $ Arg.(value & opt (some parse) None & info names ~docv ~doc ~absent))

let switch names ~doc set : _ setting =
  Term.(const (fun on wl -> if on then set wl else Ok wl)
        $ Arg.(value & flag & info names ~doc))

(* The settings, applied in order; the first refusal is a usage error. *)
let settings_term (settings : _ setting list) =
  List.fold_left
    (fun acc s -> Term.(const (fun f g wl -> Result.bind (f wl) g) $ acc $ s))
    (Term.const Result.ok) settings

(* Changes the probe auditor's workload; refused on a run without one. *)
let audited flag set (wl : Harness.Run.workload) =
  match wl.audit with
  | Some a -> Ok { wl with audit = Some (set a) }
  | None -> Error (flag ^ " needs --audit")

let source_setting =
  setting
    (Arg.enum [ ("rotation", Harness.Run.Rotation); ("intent", Harness.Run.Intent) ])
    [ "source" ] ~docv:"SRC" ~absent:"rotation"
    ~doc:"Where flows and updates come from: $(b,rotation) flips random flows \
          between their alternative paths; $(b,intent) drives seeded \
          drain/undrain maintenance cycles and TE re-pins through the intent \
          compiler, one correlated burst per event."
    (fun source (wl : Harness.Run.workload) -> Ok { wl with source })

let flows_setting ~absent =
  setting positive_int [ "flows" ] ~docv:"N" ~absent
    ~doc:"Concurrent flow population (member flows with $(b,--source intent))."
    (fun flows (wl : Harness.Run.workload) -> Ok { wl with flows })

let updates_setting names ~doc ~absent =
  setting natural names ~docv:"N" ~doc ~absent (fun updates (wl : Harness.Run.workload) ->
      Ok { wl with updates })

let gap_setting ~absent =
  setting positive_float [ "gap-mean" ] ~docv:"MS" ~absent
    ~doc:"Per-flow mean probe gap (ms); scale takes it with $(b,--audit)."
    (fun gap -> audited "--gap-mean" (fun a -> { a with tw_mean_gap_ms = gap }))

(* One line per invariant violation (scale, chaos). *)
let print_violations =
  List.iter (fun (v : Harness.Invariants.violation) ->
      Printf.printf "  t=%.1fms flow=%d: %s\n" v.v_time v.v_flow v.v_what)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* One scale or soak run under its own flight recorder, its SLO series
   written to [series_out] when given.  A workload the run loop refuses
   (say, more flows than the topology has fresh flow ids for) is an
   input error. *)
let run_workload ~incident_dir ~series_out ?tick_ms ?on_window ~seed wl topo =
  let r =
    try with_recorder incident_dir (fun () -> Harness.Run.run ?tick_ms ?on_window ~seed wl topo)
    with Invalid_argument msg | Failure msg ->
      prerr_endline msg;
      exit 2
  in
  Option.iter
    (fun path -> write_file path (Obs.Timeseries.to_jsonl r.Harness.Run.r_series))
    series_out;
  r

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
  :: Cmd.Exit.info 2
       ~doc:"on unusable input (intent programs, events, GraphML files) or a run \
             workload the run loop rejects."
  :: Cmd.Exit.defaults

(* [Cmd.info] with the uniform exit-code table attached. *)
let cmd_info name ~doc = Cmd.info name ~doc ~exits
