(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Figs. 2, 4, 7a-7f, 8a, 8b - see DESIGN.md par. 3), the ablations, and
   micro-benchmarks the control-plane preparation functions and the
   intent compiler with Bechamel.

   Run with: dune exec bench/main.exe            (full: 30 runs/figure)
             dune exec bench/main.exe -- quick   (smoke: 5 runs/figure)

   With [--json FILE] every headline number is additionally written to
   FILE as an array of {"name", "unit", "value"} rows, one per metric
   ([Obs.Rows]).  Nothing here is gated: the deterministic outputs of the
   scale, traffic, soak and intent runs are pinned in the test suite,
   and throughput is priced by perfbench/. *)

let quick = Array.exists (fun a -> a = "quick" || a = "--quick") Sys.argv

let json_out =
  let out = ref None in
  Array.iteri
    (fun i a -> if a = "--json" && i + 1 < Array.length Sys.argv then out := Some Sys.argv.(i + 1))
    Sys.argv;
  !out

let json_rows : Obs.Rows.row list ref = ref []

let record name unit value = json_rows := Obs.Rows.row name unit value :: !json_rows

let write_json_rows path =
  let rows = List.rev !json_rows in
  Obs.Rows.write ~path rows;
  Printf.printf "\n(%d benchmark rows written to %s)\n" (List.length rows) path

let runs = if quick then 5 else Harness.Scenarios.runs
let fig8_iterations = if quick then 100 else 1000

let figures_dir = "figures"

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the Fig. 8 preparation kernels and the    *)
(* intent compiler                                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_prepare_tests () =
  let open Bechamel in
  let make_pair topo =
    let net = Netsim.create (Dessim.Sim.create ~seed:5 ()) topo in
    let updates =
      Harness.Experiments.random_updates (Random.State.make [| 42 |]) topo.Topo.Topologies.graph
        ~count:20
    in
    let requests = List.map Harness.Experiments.ez_request updates in
    let name = topo.Topo.Topologies.name in
    [
      Test.make
        ~name:(Printf.sprintf "fig8a/p4update-prepare/%s" name)
        (Staged.stage (fun () ->
             List.iter
               (fun (old_path, new_path) ->
                 Harness.Experiments.p4u_prepare net ~old_path ~new_path)
               updates));
      Test.make
        ~name:(Printf.sprintf "fig8a/ez-segway-prepare/%s" name)
        (Staged.stage (fun () ->
             List.iter
               (fun r -> ignore (Baselines.Ez_segway.prepare net ~congestion:false [ r ]))
               requests));
      Test.make
        ~name:(Printf.sprintf "fig8b/ez-segway-prepare-congestion/%s" name)
        (Staged.stage (fun () ->
             ignore (Baselines.Ez_segway.prepare net ~congestion:true requests)));
    ]
  in
  List.concat_map make_pair [ Topo.Topologies.b4 (); Topo.Topologies.chinanet () ]

(* The intent compiler on a drawn 24-intent B4 program: a full compile,
   and a drain then undrain of every link the program's members use
   (each undrain restores the link, so every run starts from the same
   compiled state). *)
let bechamel_intent_tests () =
  let open Bechamel in
  let w = Harness.World.make ~seed:7 (Topo.Topologies.b4 ()) in
  let g = Netsim.graph w.Harness.World.net in
  let profile = { Harness.Intent_churn.default_profile with ip_flows = 24 } in
  let program = Harness.Intent_churn.program (Harness.Intent_churn.create ~profile w) in
  let comp = Intent.Compiler.create g program in
  let used = Hashtbl.create 64 in
  List.iter
    (fun (_, members) ->
      List.iter
        (fun path ->
          let rec walk = function
            | a :: (b :: _ as rest) ->
              Hashtbl.replace used (Intent.Lang.ekey a b) ();
              walk rest
            | _ -> ()
          in
          walk path)
        members)
    (Intent.Compiler.assignment comp);
  let links = Hashtbl.fold (fun k () acc -> k :: acc) used [] |> List.sort compare in
  [
    Test.make ~name:"intent/b4/full-compile"
      (Staged.stage (fun () -> ignore (Intent.Compiler.create g program)));
    Test.make
      ~name:(Printf.sprintf "intent/b4/drain-undrain-%d-events" (2 * List.length links))
      (Staged.stage (fun () ->
           List.iter
             (fun (u, v) ->
               ignore (Intent.Compiler.apply comp (Intent.Compiler.Drain (u, v)));
               ignore (Intent.Compiler.apply comp (Intent.Compiler.Undrain (u, v))))
             links));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  section
    "Bechamel micro-benchmarks (Fig. 8 preparation kernels, 20 updates per run; intent compiler)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 200) () in
  let tests = bechamel_prepare_tests () @ bechamel_intent_tests () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      List.iter
        (fun instance ->
          let analyzed =
            Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
              instance results
          in
          Hashtbl.iter
            (fun name result ->
              match Bechamel.Analyze.OLS.estimates result with
              | Some [ est ] ->
                Printf.printf "  %-48s %14.1f ns/run\n" name est;
                record name "ns/run" est
              | _ -> Printf.printf "  %-48s (no estimate)\n" name)
            analyzed)
        instances)
    tests

(* ------------------------------------------------------------------ *)
(* Figure harness                                                       *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  Printf.printf "P4Update evaluation harness (%s mode, %d runs per figure)\n"
    (if quick then "quick" else "full")
    runs;

  section "Fig. 2 - risk inconsistencies, update quickly? (par. 4.1)";
  let fig2 = Harness.Experiments.run_fig2 Harness.Run_config.default in
  print_string (Harness.Experiments.render_fig2 fig2);
  Harness.Svg.render_fig2 ~dir:figures_dir fig2;
  List.iter
    (fun (r : Harness.Experiments.fig2_result) ->
      record (Printf.sprintf "fig2/%s/duplicated" r.Harness.Experiments.f2_system)
        "packets" (float_of_int r.Harness.Experiments.f2_duplicated);
      record (Printf.sprintf "fig2/%s/lost" r.Harness.Experiments.f2_system)
        "packets" (float_of_int r.Harness.Experiments.f2_lost))
    fig2;

  section "Fig. 4 - maintain consistency, delay updates? (par. 4.2)";
  (* Fig. 4 keeps its published sample count even in quick mode. *)
  let fig4 =
    Harness.Experiments.run_fig4 (Harness.Run_config.make ~runs:Harness.Scenarios.runs ())
  in
  print_string (Harness.Experiments.render_fig4 fig4);
  Harness.Svg.render_fig4 ~dir:figures_dir fig4;
  record "fig4/p4update/median" "ms" (Harness.Stats.median fig4.Harness.Experiments.f4_p4update);
  record "fig4/ez-segway/median" "ms" (Harness.Stats.median fig4.Harness.Experiments.f4_ez);
  record "fig4/speedup" "x" fig4.Harness.Experiments.f4_speedup;

  section "Fig. 7 - total update time (par. 9.2)";
  List.iter
    (fun scenario ->
      let result = Harness.Experiments.run_fig7 (Harness.Run_config.make ~runs ()) scenario in
      print_string (Harness.Experiments.render_fig7 result);
      Harness.Svg.render_fig7 ~dir:figures_dir result;
      List.iter
        (fun (sys, samples) ->
          if samples <> [] then
            record
              (Printf.sprintf "fig%s/%s/median"
                 result.Harness.Experiments.f7_scenario.Harness.Experiments.f7_id
                 (Harness.Scenarios.system_name sys))
              "ms" (Harness.Stats.median samples))
        result.Harness.Experiments.f7_samples;
      print_newline ())
    (Harness.Experiments.fig7_scenarios ());

  let record_fig8 fig rows =
    List.iter
      (fun (r : Harness.Experiments.fig8_row) ->
        record
          (Printf.sprintf "%s/prepare/%s/p4update" fig r.Harness.Experiments.f8_topology)
          "ms" r.Harness.Experiments.f8_p4u_ms;
        record
          (Printf.sprintf "%s/prepare/%s/ez-segway" fig r.Harness.Experiments.f8_topology)
          "ms" r.Harness.Experiments.f8_ez_ms)
      rows
  in
  section "Fig. 8a - control plane preparation time, no congestion (par. 9.3)";
  let fig8a =
    Harness.Experiments.run_fig8 (Harness.Run_config.make ~iterations:fig8_iterations ())
  in
  print_string (Harness.Experiments.render_fig8 ~congestion:false fig8a);
  Harness.Svg.render_fig8 ~dir:figures_dir ~congestion:false fig8a;
  record_fig8 "fig8a" fig8a;

  section "Fig. 8b - control plane preparation time with congestion freedom (par. 9.3)";
  let fig8b =
    Harness.Experiments.run_fig8
      (Harness.Run_config.make ~iterations:(fig8_iterations / 10) ~congestion:true ())
  in
  print_string (Harness.Experiments.render_fig8 ~congestion:true fig8b);
  Harness.Svg.render_fig8 ~dir:figures_dir ~congestion:true fig8b;
  record_fig8 "fig8b" fig8b;
  Printf.printf "\n(SVG versions of every figure written to %s/)\n" figures_dir;

  section "Ablation - SL vs DL on the single-flow scenarios (par. 7.5 policy)";
  print_string (Harness.Ablation.render_sl_vs_dl ~runs ());

  section "Ablation - resubmission delay sweep (par. 8 BMv2 modification)";
  print_string (Harness.Ablation.render_resubmit_sweep ~runs:(max 3 (runs / 3)) ());

  section "Ablation - congestion scheduler: dynamic priorities vs FIFO (par. 7.4)";
  print_string (Harness.Ablation.render_scheduler_ablation ~runs:(max 3 (runs / 3)) ());

  run_bechamel ()

let () =
  run_figures ();
  Option.iter write_json_rows json_out;
  print_newline ()
