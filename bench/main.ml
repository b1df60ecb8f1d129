(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Figs. 2, 4, 7a-7f, 8a, 8b - see DESIGN.md par. 3), the ablations, and
   micro-benchmarks the control-plane preparation functions, the intent
   compiler, the UIB's stage-and-commit path and the event heap with
   Bechamel.

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
(* Bechamel micro-benchmarks: the Fig. 8 preparation kernels, the       *)
(* controller's batch, the intent compiler, the UIB, the event heap and *)
(* the alternative-path search                                          *)
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
    (* As in [Experiments.run_fig8]: the controller's DL preparation of a
       stand-in flow from each old path. *)
    let ctl = P4update.Controller.create net in
    ignore (P4update.Controller.register_flow ctl ~flow_id:0 ~src:0 ~dst:0 ~size:100 ~path:[]);
    [
      Test.make
        ~name:(Printf.sprintf "fig8a/p4update-prepare/%s" name)
        (Staged.stage (fun () ->
             List.iter
               (fun (old_path, new_path) ->
                 ignore
                   (P4update.Controller.prepare ctl ~flow_id:0 ~new_path
                      ~assume_old_path:old_path ~update_type:P4update.Wire.Dl ()))
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

(* [Controller.prepare_batch] on 20 drawn AttMpls updates, each from a
   registered flow's shortest path to its second-shortest, the §7.5
   policy choosing each type: the preparation perfbench's update-storm
   bursts run. *)
let bechamel_prepare_batch_tests () =
  let open Bechamel in
  let module C = P4update.Controller in
  let topo = Topo.Topologies.attmpls () in
  let ctl = C.create (Netsim.create (Dessim.Sim.create ~seed:5 ()) topo) in
  let updates =
    Harness.Experiments.random_updates (Random.State.make [| 42 |]) topo.Topo.Topologies.graph
      ~count:20
  in
  let requests =
    List.mapi
      (fun flow_id (old_path, new_path) ->
        let dst = List.nth old_path (List.length old_path - 1) in
        ignore (C.register_flow ctl ~flow_id ~src:(List.hd old_path) ~dst ~size:100 ~path:old_path);
        (flow_id, new_path))
      updates
  in
  [
    Test.make ~name:"controller/prepare-batch-attmpls"
      (Staged.stage (fun () -> ignore (C.prepare_batch ctl requests)));
  ]

(* The intent compiler on a drawn 24-intent B4 program: a full compile,
   and a drain then undrain of every link the program's members use
   (each undrain restores the link, so every run starts from the same
   compiled state). *)
let bechamel_intent_tests () =
  let open Bechamel in
  let w = Harness.World.make ~seed:7 (Topo.Topologies.b4 ()) in
  let g = Netsim.graph w.Harness.World.net in
  let program = Harness.Intent_churn.program (Harness.Intent_churn.create ~flows:24 w) in
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

(* One UIM staged and then committed through the [Uib] setters on every
   one of the 1024 flow ids in turn, so a run walks the whole per-flow
   store and the row prices the UIB layout's cache behaviour.  Versions
   are 16-bit registers: the store is reset before they would wrap. *)
let bechamel_uib_tests () =
  let open Bechamel in
  let module Uib = P4update.Uib in
  let u = Uib.create ~ports:8 in
  let version = ref 0 in
  [
    Test.make ~name:"uib/stage-commit-1024-flows"
      (Staged.stage (fun () ->
           if !version = 0xFFFF then begin
             Uib.reset u;
             version := 0
           end;
           incr version;
           let c =
             P4update.Wire.control_to_bytes
               {
                 (P4update.Wire.control_default P4update.Wire.Uim) with
                 version_new = !version;
                 dist_new = 3;
                 egress_port = !version land 7;
                 notify_port = (!version + 1) land 7;
                 flow_size = 100;
               }
           in
           for fid = 0 to P4update.Wire.flow_space - 1 do
             if Uib.stage_uim u fid c then begin
               Uib.set_ver_prev u fid (Uib.ver_cur u fid);
               Uib.set_dist_prev u fid (Uib.dist_cur u fid);
               Uib.set_ver_cur u fid (Uib.uim_version u fid);
               Uib.set_dist_cur u fid (Uib.uim_distance u fid);
               Uib.set_egress_port u fid (Uib.uim_egress u fid);
               Uib.set_notify_port u fid (Uib.uim_notify u fid);
               Uib.set_flow_size u fid (Uib.uim_size u fid);
               Uib.set_last_type u fid (Uib.uim_type u fid);
               Uib.set_counter u fid 0;
               Uib.set_chain_ok u fid 1
             end
           done));
  ]

(* The event queue outside the simulator: one hold (take the earliest
   entry, push a new one an exponential gap after it) on a heap kept at
   512 entries, where a pop descends nine levels.  The gaps are drawn
   up front so the row prices the heap, not the RNG. *)
let bechamel_heap_tests () =
  let open Bechamel in
  let module Heap = Dessim.Event_heap in
  let rand = Random.State.make [| 512 |] in
  let gaps = Array.init 4096 (fun _ -> -.log (1.0 -. Random.State.float rand 1.0)) in
  let heap = Heap.create () in
  for i = 0 to 511 do
    Heap.push heap ~time:gaps.(i) ()
  done;
  let next = ref 0 in
  [
    Test.make ~name:"dessim/heap-hold-512"
      (Staged.stage (fun () ->
           let now = Heap.min_time heap in
           Heap.take_min heap;
           Heap.push heap ~time:(now +. gaps.(!next land 4095)) ();
           incr next));
  ]

(* [Run.alt_paths] (Yen, k = 3), the path set every perfbench flow
   rotates over, on the next ordered pair of AttMpls' 600 each run. *)
let bechamel_topo_tests () =
  let open Bechamel in
  let g = (Topo.Topologies.attmpls ()).Topo.Topologies.graph in
  let n = Topo.Graph.node_count g in
  let pairs =
    List.init (n * n) (fun i -> (i / n, i mod n))
    |> List.filter (fun (src, dst) -> src <> dst)
    |> Array.of_list
  in
  let next = ref 0 in
  [
    Test.make ~name:"topo/alt-paths-attmpls"
      (Staged.stage (fun () ->
           let src, dst = pairs.(!next) in
           next := (!next + 1) mod Array.length pairs;
           ignore (Harness.Run.alt_paths g ~src ~dst)));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  section
    "Bechamel micro-benchmarks (Fig. 8 preparation kernels and the controller's batch, 20 \
     updates per run; intent compiler; UIB; event heap; alternative paths)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 200) () in
  let tests =
    bechamel_prepare_tests () @ bechamel_prepare_batch_tests () @ bechamel_intent_tests ()
    @ bechamel_uib_tests () @ bechamel_heap_tests () @ bechamel_topo_tests ()
  in
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
  let fig2 = Harness.Experiments.run_fig2 () in
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
  let fig4 = Harness.Experiments.run_fig4 ~runs:Harness.Scenarios.runs in
  print_string (Harness.Experiments.render_fig4 fig4);
  Harness.Svg.render_fig4 ~dir:figures_dir fig4;
  record "fig4/p4update/median" "ms" (Harness.Stats.median fig4.Harness.Experiments.f4_p4update);
  record "fig4/ez-segway/median" "ms" (Harness.Stats.median fig4.Harness.Experiments.f4_ez);
  record "fig4/speedup" "x" fig4.Harness.Experiments.f4_speedup;

  section "Fig. 7 - total update time (par. 9.2)";
  List.iter
    (fun scenario ->
      let result = Harness.Experiments.run_fig7 ~runs scenario in
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
  let fig8a = Harness.Experiments.run_fig8 ~iterations:fig8_iterations ~congestion:false in
  print_string (Harness.Experiments.render_fig8 ~congestion:false fig8a);
  Harness.Svg.render_fig8 ~dir:figures_dir ~congestion:false fig8a;
  record_fig8 "fig8a" fig8a;

  section "Fig. 8b - control plane preparation time with congestion freedom (par. 9.3)";
  let fig8b =
    Harness.Experiments.run_fig8 ~iterations:(fig8_iterations / 10) ~congestion:true
  in
  print_string (Harness.Experiments.render_fig8 ~congestion:true fig8b);
  Harness.Svg.render_fig8 ~dir:figures_dir ~congestion:true fig8b;
  record_fig8 "fig8b" fig8b;
  Printf.printf "\n(SVG versions of every figure written to %s/)\n" figures_dir;

  section "Ablation - SL vs DL on the single-flow scenarios (par. 7.5 policy)";
  print_string (Harness.Ablation.render_sl_vs_dl ~runs ());

  section "Ablation - resubmission delay sweep (par. 8 BMv2 modification)";
  print_string (Harness.Ablation.render_resubmit_sweep ~runs:(max 3 (runs / 3)) ());

  run_bechamel ()

let () =
  run_figures ();
  Option.iter write_json_rows json_out;
  print_newline ()
