(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Figs. 2, 4, 7a-7f, 8a, 8b - see DESIGN.md par. 3) and micro-benchmarks
   the control-plane preparation functions with Bechamel.

   Run with: dune exec bench/main.exe            (full: 30 runs/figure)
             dune exec bench/main.exe -- quick   (smoke: 5 runs/figure)
             dune exec bench/main.exe -- scale   (scale subsuite -> BENCH_scale.json)
             dune exec bench/main.exe -- traffic (traffic audit -> BENCH_traffic.json)
             dune exec bench/main.exe -- soak    (soak monitor -> BENCH_soak.json)
             dune exec bench/main.exe -- obs     (observability overhead -> BENCH_obs.json)
             dune exec bench/main.exe -- intent  (intent compiler -> BENCH_intent.json)
             dune exec bench/main.exe -- shard   (sharded control plane -> BENCH_shard.json)
             dune exec bench/main.exe -- check --baseline B.json --current C.json

   With [--json FILE] every headline number is additionally written to
   FILE as an array of {"name", "unit", "value"} rows, one per metric —
   the [Obs.Rows] format CI trend dashboards ingest.  The [scale],
   [traffic], [soak] and [obs] subsuites always write rows (default files
   BENCH_scale.json, BENCH_traffic.json, BENCH_soak.json, BENCH_obs.json).

   The regression gate: [--check BASELINE.json] compares this run's rows
   against a pinned baseline with per-metric tolerance bands and exits 3
   on any regression; [--baseline-out FILE] pins the current rows as a
   new baseline (loose bands stamped on wall-clock units).  The
   standalone [check] mode compares two already-written row files without
   re-running anything. *)

let quick = Array.exists (fun a -> a = "quick" || a = "--quick") Sys.argv
let scale_mode = Array.exists (fun a -> a = "scale") Sys.argv
let traffic_mode = Array.exists (fun a -> a = "traffic") Sys.argv
let soak_mode = Array.exists (fun a -> a = "soak") Sys.argv
let obs_mode = Array.exists (fun a -> a = "obs") Sys.argv
let intent_mode = Array.exists (fun a -> a = "intent") Sys.argv
let shard_mode = Array.exists (fun a -> a = "shard") Sys.argv
let check_mode = Array.exists (fun a -> a = "check") Sys.argv

let flag_value name =
  let out = ref None in
  Array.iteri
    (fun i a -> if a = name && i + 1 < Array.length Sys.argv then out := Some Sys.argv.(i + 1))
    Sys.argv;
  !out

let json_out =
  match flag_value "--json" with
  | None when scale_mode -> Some "BENCH_scale.json"
  | None when traffic_mode -> Some "BENCH_traffic.json"
  | None when soak_mode -> Some "BENCH_soak.json"
  | None when obs_mode -> Some "BENCH_obs.json"
  | None when intent_mode -> Some "BENCH_intent.json"
  | None when shard_mode -> Some "BENCH_shard.json"
  | out -> out

let check_against = flag_value "--check"
let baseline_out = flag_value "--baseline-out"

(* Rows accumulated by every section below ([Obs.Rows] is the one
   emitter, shared with the --check reader). *)
let json_rows : Obs.Rows.row list ref = ref []

(* The soak subsuite is an SLO gate: a breach still writes its rows, then
   fails the process. *)
let soak_failed = ref false

let record name unit value = json_rows := Obs.Rows.row name unit value :: !json_rows

(* Print-and-record helper every subsuite routes through: one aligned
   console line, one JSON row under [prefix/]. *)
let emit ~prefix name unit value =
  Printf.printf "  %-32s %14.1f %s\n" name value unit;
  record (prefix ^ "/" ^ name) unit value

let write_json_rows path =
  let rows = List.rev !json_rows in
  Obs.Rows.write ~path rows;
  Printf.printf "\n(%d benchmark rows written to %s)\n" (List.length rows) path

(* Compare rows against a pinned baseline; exit 3 on regression so CI
   distinguishes "perf gate tripped" from a crashed bench. *)
let run_check ~baseline_path ~current =
  let baseline = Obs.Rows.read ~path:baseline_path in
  let ok, verdicts = Obs.Rows.check ~baseline ~current in
  List.iter print_endline (Obs.Rows.report_lines ~baseline_path verdicts);
  if not ok then exit 3

let runs = if quick then 5 else Harness.Scenarios.runs
let fig8_iterations = if quick then 100 else 1000

let figures_dir = "figures"

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the Fig. 8 preparation kernels            *)
(* ------------------------------------------------------------------ *)

let bechamel_prepare_tests () =
  let open Bechamel in
  let make_pair topo =
    let sim = Dessim.Sim.create ~seed:5 () in
    let net = Netsim.create sim topo in
    let graph = topo.Topo.Topologies.graph in
    let rng = Random.State.make [| 42 |] in
    let updates = ref [] in
    while List.length !updates < 20 do
      let n = Topo.Graph.node_count graph in
      let src = Random.State.int rng n and dst = Random.State.int rng n in
      if src <> dst then
        match Topo.Graph.k_shortest_paths graph ~src ~dst ~k:2 with
        | [ old_path; new_path ] -> updates := (old_path, new_path) :: !updates
        | _ -> ()
    done;
    let updates = !updates in
    let requests =
      List.map
        (fun (old_path, new_path) ->
          let src = List.hd old_path and dst = List.nth old_path (List.length old_path - 1) in
          {
            Baselines.Ez_segway.ur_flow =
              Topo.Traffic.flow_id_of_pair ~src ~dst land (P4update.Wire.flow_space - 1);
            ur_size = 100;
            ur_old_path = old_path;
            ur_new_path = new_path;
          })
        updates
    in
    let name = topo.Topo.Topologies.name in
    [
      Test.make
        ~name:(Printf.sprintf "fig8a/p4update-prepare/%s" name)
        (Staged.stage (fun () ->
             List.iter
               (fun (old_path, new_path) ->
                 let labels = P4update.Label.of_path net new_path in
                 let seg = P4update.Segment.compute ~old_path ~new_path in
                 ignore (P4update.Segment.annotate seg labels))
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

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  section "Bechamel micro-benchmarks (Fig. 8 preparation kernels, 20 updates per run)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 200) () in
  let tests = bechamel_prepare_tests () in
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
(* Scale subsuite: event-kernel heap and many-concurrent-update runs    *)
(* ------------------------------------------------------------------ *)

(* Hold-model microbenchmark of the flat event heap against the seed's
   boxed heap ([Event_heap_ref], kept verbatim as the baseline): fill to
   [hold], then [ops] pop-push cycles with an identical LCG-driven time
   sequence.  One cycle = one pop + one push, counted as two ops.  This is
   the acceptance surface for the kernel optimization: both numbers are
   printed and the ratio recorded. *)
let heap_hold_bench ~hold ~ops =
  let payload = () in
  let lcg = ref 1 in
  let next_time base =
    lcg := (!lcg * 1103515245 + 12345) land 0x3FFFFFFF;
    base +. float_of_int (!lcg land 1023) /. 16.0
  in
  let run_flat () =
    lcg := 1;
    let h = Dessim.Event_heap.create () in
    for _ = 1 to hold do
      Dessim.Event_heap.push h ~time:(next_time 0.0) payload
    done;
    let started = Sys.time () in
    for _ = 1 to ops do
      match Dessim.Event_heap.pop h with
      | None -> assert false
      | Some (t, p) -> Dessim.Event_heap.push h ~time:(next_time t) p
    done;
    let dt = Sys.time () -. started in
    float_of_int (2 * ops) /. dt
  in
  let run_ref () =
    lcg := 1;
    let h = Dessim.Event_heap_ref.create () in
    for _ = 1 to hold do
      Dessim.Event_heap_ref.push h ~time:(next_time 0.0) payload
    done;
    let started = Sys.time () in
    for _ = 1 to ops do
      match Dessim.Event_heap_ref.pop h with
      | None -> assert false
      | Some (t, p) -> Dessim.Event_heap_ref.push h ~time:(next_time t) p
    done;
    let dt = Sys.time () -. started in
    float_of_int (2 * ops) /. dt
  in
  (* Interleave to even out cache/GC warmup; keep the best of 3. *)
  let best f = max (f ()) (max (f ()) (f ())) in
  let ref_ops = best run_ref in
  let flat_ops = best run_flat in
  (flat_ops, ref_ops)

(* The scale and traffic subsuites' update workload. *)
let scale_workload =
  if quick then { Harness.Scale.default_workload with updates = 200; flows = 50 }
  else Harness.Scale.default_workload

let scale_row topo_name metric unit value =
  emit ~prefix:"scale" (topo_name ^ "/" ^ metric) unit value

let run_scale () =
  Printf.printf "P4Update scale subsuite (%s mode)\n" (if quick then "quick" else "full");
  section "Event-kernel heap: flat (current) vs boxed (seed baseline)";
  let hold = 10_000 in
  let ops = if quick then 200_000 else 2_000_000 in
  let flat_ops, ref_ops = heap_hold_bench ~hold ~ops in
  Printf.printf "  hold %d events, %d pop-push cycles\n" hold ops;
  Printf.printf "  flat heap   %12.0f ops/s\n" flat_ops;
  Printf.printf "  boxed heap  %12.0f ops/s\n" ref_ops;
  Printf.printf "  speedup     %12.2fx %s\n" (flat_ops /. ref_ops)
    (if flat_ops >= 2.0 *. ref_ops then "(>= 2x target met)" else "(below 2x target!)");
  record "scale/heap/flat" "ops/s" flat_ops;
  record "scale/heap/boxed" "ops/s" ref_ops;
  record "scale/heap/speedup" "x" (flat_ops /. ref_ops);
  section "Many-concurrent-update workloads (Poisson bursts, churn, invariant probes)";
  List.iter
    (fun build ->
      let cfg = Harness.Run_config.make ~seed:42 ~incident_dir:"incidents" () in
      let r = Harness.Run.run scale_workload cfg (build ()) in
      Format.printf "%a@." Harness.Scale.pp r;
      let name = r.r_topology in
      scale_row name "events_per_s" "events/s" r.r_events_per_s;
      scale_row name "updates_per_s" "updates/s" r.r_updates_per_s;
      scale_row name "prep_per_s" "updates/s" r.r_prep_per_s;
      scale_row name "completion_p50" "ms" r.r_p50_ms;
      scale_row name "completion_p99" "ms" r.r_p99_ms;
      scale_row name "completed" "updates" (float_of_int r.r_completed);
      scale_row name "violations" "count" (float_of_int (List.length r.r_violations)))
    [ Topo.Topologies.attmpls; Topo.Topologies.chinanet ]

(* ------------------------------------------------------------------ *)
(* Traffic subsuite: probe packets racing update bursts, per-packet     *)
(* consistency audit (DESIGN par. 10)                                   *)
(* ------------------------------------------------------------------ *)

let run_traffic () =
  Printf.printf "P4Update traffic-audit subsuite (%s mode)\n" (if quick then "quick" else "full");
  section "Probe traffic racing scale update bursts (per-packet audit)";
  let audit =
    if quick then
      { Harness.Traffic.default_workload with Harness.Traffic.tw_stop_ms = 300.0 }
    else Harness.Traffic.default_workload
  in
  List.iter
    (fun build ->
      let cfg = Harness.Run_config.make ~seed:42 ~incident_dir:"incidents" () in
      let r = Harness.Run.run { scale_workload with audit = Some audit } cfg (build ()) in
      let ts = Option.get r.r_traffic in
      Format.printf "%a@.%a@." Harness.Scale.pp r Harness.Traffic.pp ts;
      let name = r.r_topology in
      let row metric unit value = emit ~prefix:"traffic" (name ^ "/" ^ metric) unit value in
      row "pkts_per_s" "pkts/s" ts.Harness.Traffic.ts_pkts_per_s;
      row "injected" "pkts" (float_of_int ts.Harness.Traffic.ts_injected);
      row "delivery_rate" "ratio"
        (if ts.Harness.Traffic.ts_injected = 0 then 0.0
         else
           float_of_int ts.Harness.Traffic.ts_delivered
           /. float_of_int ts.Harness.Traffic.ts_injected);
      row "latency_p50" "ms" ts.Harness.Traffic.ts_p50_ms;
      row "latency_p99" "ms" ts.Harness.Traffic.ts_p99_ms;
      row "reordered" "pkts" (float_of_int ts.Harness.Traffic.ts_reordered);
      row "violations" "count" (float_of_int (Harness.Traffic.violations ts));
      row "updates_completed" "updates" (float_of_int r.r_completed))
    [ Topo.Topologies.attmpls; Topo.Topologies.chinanet ]

(* ------------------------------------------------------------------ *)
(* Soak subsuite: the graceful-degradation monitor (churn + rolling     *)
(* faults + probes, leak readings, SLO)                                 *)
(* ------------------------------------------------------------------ *)

let run_soak () =
  Printf.printf "P4Update soak subsuite (%s mode)\n" (if quick then "quick" else "full");
  section "Soak monitor: churn + rolling faults + probe audit + leak readings";
  let config =
    if quick then Harness.Soak.quick_config else Harness.Soak.default_config
  in
  let topo = Topo.Topologies.b4 () in
  let cfg =
    Harness.Run_config.make ~seed:Harness.Run_config.default.Harness.Run_config.seed
      ~incident_dir:"incidents" ()
  in
  let r = Harness.Run.run config cfg topo in
  Format.printf "%a@." Harness.Soak.pp r;
  let row metric unit value =
    emit ~prefix:"soak" (r.r_topology ^ "/" ^ metric) unit value
  in
  let ts = Option.get r.r_traffic in
  row "events_per_s" "events/s" r.r_events_per_s;
  row "pkts_per_s" "pkts/s" ts.Harness.Traffic.ts_pkts_per_s;
  row "injected" "pkts" (float_of_int ts.Harness.Traffic.ts_injected);
  row "updates_pushed" "updates" (float_of_int r.r_pushed);
  row "updates_completed" "updates" (float_of_int r.r_completed);
  row "update_p50" "ms" r.r_p50_ms;
  row "update_p99" "ms" r.r_p99_ms;
  row "latency_p99" "ms" ts.Harness.Traffic.ts_p99_ms;
  row "aborts" "count" (float_of_int r.r_recovery.P4update.Controller.aborts);
  row "give_ups" "count" (float_of_int r.r_recovery.P4update.Controller.give_ups);
  row "violations" "count" (float_of_int (Harness.Traffic.violations ts));
  row "stuck" "count" (float_of_int (List.length r.r_stuck));
  row "leaks" "count" (float_of_int (List.length r.r_leaks));
  row "slo_ok" "bool" (if Harness.Run.ok r then 1.0 else 0.0);
  (* Per-cycle leak readings as rows: the gate pins each boundary, so a
     heap or flight-table creep that stays under the end-of-run leak
     thresholds still shows up as a regression against the baseline. *)
  List.iter
    (fun (c : Harness.Run.cycle) ->
      let cyc metric unit value =
        row (Printf.sprintf "cycle%d/%s" c.cy_index metric) unit value
      in
      cyc "injected" "pkts" (float_of_int c.cy_injected);
      cyc "pending_events" "count" (float_of_int c.cy_pending_events);
      cyc "flows" "flows" (float_of_int c.cy_flows);
      cyc "in_flight" "count" (float_of_int c.cy_in_flight);
      cyc "violations" "count" (float_of_int c.cy_violations))
    r.r_cycles;
  if not (Harness.Run.ok r) then begin
    List.iter print_endline (Harness.Soak.report_lines r);
    soak_failed := true
  end

(* ------------------------------------------------------------------ *)
(* Obs subsuite: flight-recorder overhead (DESIGN par. 7)               *)
(* ------------------------------------------------------------------ *)

(* Acceptance surface for the always-on recorder: its cost on the scale
   engine must stay under 5% of recorder-off events/s.  Measured as
   interleaved best-of-3 full Scale runs (fresh world each, identical
   seed, so the event schedules are byte-identical and only the
   recording differs), plus a tight [note] microbenchmark for the
   per-call cost with and without a recorder installed. *)
let run_obs () =
  Printf.printf "P4Update observability subsuite (%s mode)\n" (if quick then "quick" else "full");
  let obs_row name unit value = emit ~prefix:"obs" name unit value in
  section "Flight recorder: note microbenchmark";
  let n = if quick then 2_000_000 else 20_000_000 in
  let time_notes () =
    let started = Dessim.Wallclock.now_s () in
    for i = 1 to n do
      Obs.Flight_recorder.note ~now:(float_of_int i)
        ~kind:Obs.Flight_recorder.k_deliver ~node:(i land 15) ~flow:1 ~a:i ~b:0
    done;
    float_of_int n /. Dessim.Wallclock.elapsed_s ~since:started
  in
  let best f = max (f ()) (max (f ()) (f ())) in
  let note_off = best time_notes in
  Obs.Flight_recorder.install (Obs.Flight_recorder.create ());
  let note_on = best time_notes in
  Obs.Flight_recorder.uninstall ();
  obs_row "note_disabled" "ops/s" note_off;
  obs_row "note_enabled" "ops/s" note_on;
  section "Recorder overhead on the scale engine (recorder on vs off, best of 3)";
  let workload =
    { Harness.Scale.default_workload with flows = 50; updates = (if quick then 200 else 1000) }
  in
  let run_with recorder =
    let cfg = Harness.Run_config.make ~seed:42 ~recorder () in
    (Harness.Run.run workload cfg (Topo.Topologies.attmpls ())).r_events_per_s
  in
  ignore (run_with false) (* warm-up: page in the code paths once *);
  let best_off = ref 0.0 and best_on = ref 0.0 in
  for _ = 1 to 3 do
    best_off := max !best_off (run_with false);
    best_on := max !best_on (run_with true)
  done;
  let overhead_pct = (1.0 -. (!best_on /. !best_off)) *. 100.0 in
  obs_row "scale_events_per_s_recorder_off" "events/s" !best_off;
  obs_row "scale_events_per_s_recorder_on" "events/s" !best_on;
  obs_row "recorder_overhead" "%" (Float.max 0.0 overhead_pct);
  Printf.printf "  recorder cost %.2f%% of events/s (target < 5%%)\n" overhead_pct;
  (* Wall-clock noise swamps a 5-point band in quick/CI runs; the full
     suite enforces the acceptance threshold. *)
  if (not quick) && overhead_pct > 5.0 then begin
    Printf.printf "  OBS GATE FAILED: recorder overhead %.2f%% > 5%%\n" overhead_pct;
    soak_failed := true
  end

(* ------------------------------------------------------------------ *)
(* Figure harness                                                       *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  Printf.printf "P4Update evaluation harness (%s mode, %d runs per figure)\n"
    (if quick then "quick" else "full")
    runs;

  section "Fig. 2 - risk inconsistencies, update quickly? (par. 4.1)";
  let fig2 = Harness.Experiments.fig2 () in
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
  let fig4 = Harness.Experiments.fig4 () in
  print_string (Harness.Experiments.render_fig4 fig4);
  Harness.Svg.render_fig4 ~dir:figures_dir fig4;
  record "fig4/p4update/median" "ms" (Harness.Stats.median fig4.Harness.Experiments.f4_p4update);
  record "fig4/ez-segway/median" "ms" (Harness.Stats.median fig4.Harness.Experiments.f4_ez);
  record "fig4/speedup" "x" fig4.Harness.Experiments.f4_speedup;

  section "Fig. 7 - total update time (par. 9.2)";
  List.iter
    (fun scenario ->
      let result = Harness.Experiments.fig7 ~runs scenario in
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
  let fig8a = Harness.Experiments.fig8 ~iterations:fig8_iterations ~congestion:false () in
  print_string (Harness.Experiments.render_fig8 ~congestion:false fig8a);
  Harness.Svg.render_fig8 ~dir:figures_dir ~congestion:false fig8a;
  record_fig8 "fig8a" fig8a;

  section "Fig. 8b - control plane preparation time with congestion freedom (par. 9.3)";
  let fig8b = Harness.Experiments.fig8 ~iterations:(fig8_iterations / 10) ~congestion:true () in
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

(* ------------------------------------------------------------------ *)
(* Intent subsuite: declarative policies compiled to update streams     *)
(* ------------------------------------------------------------------ *)

let run_intent () =
  Printf.printf "P4Update intent subsuite (%s mode)\n" (if quick then "quick" else "full");
  section "Intent compiler: canonical compile + incremental drain diffs";
  let topo = Topo.Topologies.b4 () in
  let w = Harness.World.make ~seed:7 topo in
  let g = Netsim.graph w.Harness.World.net in
  let profile =
    { Harness.Intent_churn.default_profile with
      Harness.Intent_churn.ip_flows = (if quick then 24 else 60) }
  in
  let ic = Harness.Intent_churn.create ~profile w in
  let program = Harness.Intent_churn.program ic in
  let row name unit_ value = emit ~prefix:"intent" ("b4/" ^ name) unit_ value in
  let flows = List.length program.Intent.Lang.flows in
  row "flows" "flows" (float_of_int flows);
  row "members" "flows" (float_of_int (Harness.Intent_churn.members ic));
  let reps = ref 0 in
  let started = Dessim.Wallclock.now_s () in
  while Dessim.Wallclock.elapsed_s ~since:started < 0.2 do
    ignore (Intent.Compiler.create g program);
    incr reps
  done;
  let full_ns = 1e9 *. Dessim.Wallclock.elapsed_s ~since:started /. float_of_int !reps in
  row "full_compile" "ns/run" full_ns;
  (* Incremental drain/undrain cycles over every link the program uses:
     per-event latency and the diff footprint vs a full recompile. *)
  let comp = Intent.Compiler.create g program in
  let drains =
    let used = Hashtbl.create 64 in
    List.iter
      (fun (_, ms) ->
        List.iter
          (fun path ->
            let rec walk = function
              | a :: (b :: _ as rest) ->
                Hashtbl.replace used (Intent.Lang.ekey a b) ();
                walk rest
              | _ -> ()
            in
            walk path)
          ms)
      (Intent.Compiler.assignment comp);
    Hashtbl.fold (fun k () acc -> k :: acc) used [] |> List.sort compare
  in
  let events = ref 0 and recomputed = ref 0 and changed = ref 0 and max_diff = ref 0 in
  let started = Dessim.Wallclock.now_s () in
  List.iter
    (fun (u, v) ->
      List.iter
        (fun ev ->
          let d = Intent.Compiler.apply comp ev in
          incr events;
          recomputed := !recomputed + d.Intent.Compiler.d_recomputed;
          changed := !changed + List.length d.Intent.Compiler.d_changes;
          max_diff := max !max_diff d.Intent.Compiler.d_recomputed)
        [ Intent.Compiler.Drain (u, v); Intent.Compiler.Undrain (u, v) ])
    drains;
  let incr_ns = 1e9 *. Dessim.Wallclock.elapsed_s ~since:started /. float_of_int !events in
  row "incremental_event" "ns/run" incr_ns;
  row "drain_events" "events" (float_of_int !events);
  row "recompiled_per_event" "count" (float_of_int !recomputed /. float_of_int !events);
  row "changed_per_event" "count" (float_of_int !changed /. float_of_int !events);
  row "max_diff" "count" (float_of_int !max_diff);
  (* The acceptance bound: the largest incremental footprint stays below
     a full recompilation. *)
  row "incremental_below_full" "bool" (if !max_diff < flows then 1.0 else 0.0);

  section "Intent churn through the scale engine (drains + TE sweeps)";
  let cfg = Harness.Run_config.make ~seed:5 ~recorder:false ~intent_churn:true () in
  let wl =
    { Harness.Scale.default_workload with
      updates = (if quick then 200 else 1000);
      flows = (if quick then 24 else 60);
      arrival_mean_ms = 8.0;
      pacing = Open 600_000.0 }
  in
  let r = Harness.Run.run wl cfg (Topo.Topologies.b4 ()) in
  Format.printf "%a@." Harness.Scale.pp r;
  row "updates_pushed" "updates" (float_of_int r.r_pushed);
  row "updates_completed" "updates" (float_of_int r.r_completed);
  row "intent_events" "events" (float_of_int r.r_churned);
  row "update_p99" "ms" r.r_p99_ms;
  row "prep_per_s" "updates/s" r.r_prep_per_s;
  row "violations" "count" (float_of_int (List.length r.r_violations))

(* ------------------------------------------------------------------ *)
(* Shard subsuite: multi-controller control-plane scaling               *)
(* ------------------------------------------------------------------ *)

(* Acceptance surface for the sharded control plane: preparation
   throughput over a 10k+ concurrent-flow population on the fat-tree
   must scale near-linearly in shard count (>= 1.6x at 2 shards), with
   zero Thm. 1-4 / per-packet audit violations at every shard count.

   Throughput is aggregate per-replica capacity ([Run.retime_prep]):
   each shard's prep loop is timed in isolation against a clone holding
   only the Flow-DB slice it owns, and the rates are summed — the
   sustained capacity of k controllers each on its own machine (the
   container is single-core, so wall-clock parallel timing would only
   measure scheduler interleaving).

   The correctness leg pushes a cross-domain-heavy burst through the
   sharded coordinator on a smaller population, races the Traffic
   auditor through it and probes the structural invariants; the
   per-shard routed/prepared/cross counters from the Obs registry become
   rows so the baseline pins the routing split too. *)
let run_shard () =
  Printf.printf "P4Update shard subsuite (%s mode)\n" (if quick then "quick" else "full");
  let row name unit value = emit ~prefix:"shard" name unit value in
  let shard_counts = [ 1; 2; 4 ] in
  let topo = Topo.Topologies.fat_tree ~k:16 () in
  let g = topo.Topo.Topologies.graph in
  let n = Topo.Graph.node_count g in
  (* Deterministic flow population: a primary shortest path plus one
     alternative avoiding the primary's middle edge — one extra Dijkstra
     per pair (Yen's k-shortest is too slow at this pair count). *)
  let draw_specs count =
    let rng = Random.State.make [| 0x5eed |] in
    let seen = Hashtbl.create (4 * count) in
    let specs = ref [] and made = ref 0 in
    while !made < count do
      let src = Random.State.int rng n and dst = Random.State.int rng n in
      if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
        Hashtbl.replace seen (src, dst) ();
        match Topo.Graph.shortest_path g ~src ~dst with
        | None -> ()
        | Some primary when List.length primary < 3 -> ()
        | Some primary ->
          let mid = List.length primary / 2 in
          let a = List.nth primary (mid - 1) and b = List.nth primary mid in
          let edge_ok u v = not ((u = a && v = b) || (u = b && v = a)) in
          (match
             Topo.Graph.shortest_path_avoiding g ~src ~dst
               ~node_ok:(fun _ -> true) ~edge_ok
           with
          | None -> ()
          | Some alt ->
            if alt <> primary then begin
              specs := (src, dst, primary, alt) :: !specs;
              incr made
            end)
      end
    done;
    List.rev !specs
  in
  let populate shards specs =
    let w = Harness.World.make ~seed:42 ~shards topo in
    List.iteri
      (fun i (src, dst, primary, _) ->
        ignore (Harness.World.install_flow ~flow_id:i w ~src ~dst ~size:1 ~path:primary))
      specs;
    (w, List.mapi (fun i (_, _, _, alt) -> (i, alt)) specs)
  in
  section "Prep throughput vs shard count (fat-tree K=16, per-replica capacity)";
  (* The wire header caps live flow ids at [Wire.flow_space] (1024), so
     the population saturates the flow space and the 10k-update request
     stream rotates it: each round flips every flow between its primary
     and alternative path. *)
  let n_flows = if quick then 500 else 1_000 in
  let n_updates = if quick then 2_000 else 10_000 in
  let specs = draw_specs n_flows in
  let rounds = (n_updates + n_flows - 1) / n_flows in
  Printf.printf "  %d concurrent flows, %d-update stream on %s (%d nodes)\n"
    (List.length specs) (rounds * n_flows) topo.Topo.Topologies.name n;
  let prep_rates =
    List.map
      (fun shards ->
        let w, requests = populate shards specs in
        let stream =
          List.concat
            (List.init rounds (fun r ->
                 if r mod 2 = 0 then requests
                 else List.mapi (fun i (_, _, primary, _) -> (i, primary)) specs))
        in
        let rate = Harness.Run.retime_prep w stream in
        row (Printf.sprintf "fat-tree/shards%d/prep_per_s" shards) "updates/s" rate;
        (shards, rate))
      shard_counts
  in
  let rate_at k = List.assoc k prep_rates in
  let speedup_2 = rate_at 2 /. rate_at 1 and speedup_4 = rate_at 4 /. rate_at 1 in
  row "fat-tree/speedup_2x" "x" speedup_2;
  row "fat-tree/speedup_4x" "x" speedup_4;
  Printf.printf "  speedup %0.2fx at 2 shards, %0.2fx at 4 (target >= 1.6x at 2)\n"
    speedup_2 speedup_4;
  if (not quick) && speedup_2 < 1.6 then begin
    Printf.printf "  SHARD GATE FAILED: %.2fx < 1.6x at 2 shards\n" speedup_2;
    soak_failed := true
  end;
  section "Cross-shard updates under the Traffic auditor (Thm. 1-4 + per-packet)";
  let audit_specs = draw_specs (if quick then 150 else 300) in
  List.iter
    (fun shards ->
      let w, requests = populate shards audit_specs in
      let monitor = Harness.Invariants.create w in
      let tr = Harness.Traffic.attach w in
      Harness.Traffic.start tr;
      Harness.Traffic.inject_until tr ~stop_ms:400.0;
      ignore (Harness.World.run ~until:50.0 w);
      let prepared = Control.Plane.prepare_batch w.Harness.World.plane requests in
      List.iter
        (fun p ->
          Harness.Traffic.note_pushed tr ~flow_id:p.P4update.Controller.p_flow
            ~version:p.P4update.Controller.p_version;
          Control.Plane.push w.Harness.World.plane p)
        prepared;
      ignore (Harness.World.run w);
      Harness.Traffic.drain tr;
      let ts = Harness.Traffic.finalize tr in
      Harness.Invariants.check_structural monitor (Harness.World.flows w);
      let structural = List.length (Harness.Invariants.violations monitor) in
      let audit = Harness.Traffic.violations ts in
      let srow metric unit value =
        row (Printf.sprintf "audit/shards%d/%s" shards metric) unit value
      in
      srow "updates" "updates" (float_of_int (List.length prepared));
      srow "audited_pkts" "pkts" (float_of_int ts.Harness.Traffic.ts_injected);
      srow "violations" "count" (float_of_int (structural + audit));
      let reg = Netsim.metrics w.Harness.World.net in
      let shard_total metric =
        List.fold_left
          (fun acc i -> acc + Obs.Metrics.get_count reg (Printf.sprintf "shard.%d.%s" i metric))
          0
          (List.init shards (fun i -> i))
      in
      if shards > 1 then begin
        srow "routed" "msgs" (float_of_int (shard_total "routed"));
        srow "cross_domain" "updates" (float_of_int (shard_total "cross"))
      end;
      Printf.printf
        "  shards=%d: %d updates, %d probes audited, %d cross-domain, %d violations\n"
        shards (List.length prepared) ts.Harness.Traffic.ts_injected
        (if shards > 1 then shard_total "cross" else 0)
        (structural + audit);
      if structural + audit > 0 then begin
        Printf.printf "  SHARD GATE FAILED: %d violations at shards=%d\n"
          (structural + audit) shards;
        soak_failed := true
      end)
    shard_counts

let () =
  if check_mode then begin
    (* Standalone gate: compare two already-written row files. *)
    match (flag_value "--baseline", flag_value "--current") with
    | Some baseline_path, Some current_path ->
      run_check ~baseline_path ~current:(Obs.Rows.read ~path:current_path)
    | _ ->
      prerr_endline "usage: bench check --baseline FILE --current FILE";
      exit 2
  end
  else begin
    if scale_mode then run_scale ()
    else if traffic_mode then run_traffic ()
    else if soak_mode then run_soak ()
    else if obs_mode then run_obs ()
    else if intent_mode then run_intent ()
    else if shard_mode then run_shard ()
    else run_figures ();
    (match json_out with Some path -> write_json_rows path | None -> ());
    (match baseline_out with
     | Some path ->
       Obs.Rows.write_baseline ~path (List.rev !json_rows);
       Printf.printf "(baseline with tolerance bands pinned to %s)\n" path
     | None -> ());
    (match check_against with
     | Some baseline_path -> run_check ~baseline_path ~current:(List.rev !json_rows)
     | None -> ());
    print_newline ();
    if !soak_failed then exit 1
  end
