(* The burst-run loop.

   - Pins: the scale, traffic and soak runs are pure functions of their
     seed, so their deterministic outputs are pinned to literals here:
     counts, violations, simulated-ms percentiles, digests, the soak's
     cycle-boundary leak readings and the flight recorder's note count.
     Same-seed repeats only prove a run is reproducible; these pins
     prove it is unchanged, so a change to the run loop that shifts one
     RNG draw or one event fails here.
   - The population: over random seeds and random retire/admit
     interleavings, no flow id is admitted twice (ids are masked pair
     hashes, so distinct pairs share them), every admitted pair has two
     alternative paths, and the Flow DB tracks the population. *)

module Run = Harness.Run
module Scale = Harness.Scale
module Soak = Harness.Soak
module Traffic = Harness.Traffic
module Topologies = Topo.Topologies

let int = Alcotest.(check int)
let ms = Alcotest.(check (float 1e-6))

let scale_workload = { Scale.default_workload with Run.updates = 200; flows = 50 }

let scale_run ?(source = Run.Rotation) ?(topo = Topologies.attmpls) () =
  Run.run ~seed:42 { scale_workload with source } (topo ())

let check_scale (r : Run.result) ~pushed ~completed ~events ~bursts ~churned ~p50 ~p99 =
  int "pushed" pushed r.r_pushed;
  int "completed" completed r.r_completed;
  int "events" events r.r_events;
  int "bursts" bursts r.r_bursts;
  int "churned" churned r.r_churned;
  ms "p50" p50 r.r_p50_ms;
  ms "p99" p99 r.r_p99_ms;
  int "violations" 0 (List.length r.r_violations)

(* The flight recorder's cost is its note count, exact for a seed.
   Recording never perturbs the schedule, so the run without a recorder
   is the same run. *)
let scale_pins ?recorder r =
  check_scale r ~pushed:200 ~completed:162 ~events:3040 ~bursts:25 ~churned:2
    ~p50:193.285595 ~p99:216.030560;
  Option.iter (fun fr -> int "recorder notes" 1321 (Obs.Flight_recorder.total fr)) recorder

let test_scale_pins () =
  let recorder = Obs.Flight_recorder.create () in
  Obs.Flight_recorder.install recorder;
  scale_pins ~recorder (Fun.protect ~finally:Obs.Flight_recorder.uninstall scale_run)

let test_scale_recorder_off_pins () = scale_pins (scale_run ())

let test_scale_chinanet_pins () =
  check_scale
    (scale_run ~topo:Topologies.chinanet ())
    ~pushed:200 ~completed:152 ~events:4112 ~bursts:25 ~churned:3 ~p50:276.908567
    ~p99:300.952116

let test_scale_intent_pins () =
  check_scale (scale_run ~source:Run.Intent ()) ~pushed:203 ~completed:159 ~events:3913
    ~bursts:46 ~churned:50 ~p50:122.259334 ~p99:191.139223

let traffic_run topo =
  Run.run ~seed:42
    { scale_workload with
      audit = Some { Traffic.default_workload with tw_stop_ms = 300.0 } }
    (topo ())

let check_probes (ts : Traffic.summary) ~p50 ~p99 =
  ms "probe p50" p50 ts.ts_p50_ms;
  ms "probe p99" p99 ts.ts_p99_ms;
  int "audit violations" 0 (Traffic.violations ts)

let test_traffic_pins () =
  let r = traffic_run Topologies.attmpls in
  let ts = Option.get r.r_traffic in
  int "events" 34735 r.r_events;
  int "completed" 169 r.r_completed;
  int "injected" 6115 ts.Traffic.ts_injected;
  int "delivered" 6115 ts.Traffic.ts_delivered;
  int "reordered" 47 ts.Traffic.ts_reordered;
  int "digest" 0x13a5b370 ts.Traffic.ts_digest;
  check_probes ts ~p50:15.326472 ~p99:31.623915

let test_traffic_chinanet_pins () =
  let r = traffic_run Topologies.chinanet in
  let ts = Option.get r.r_traffic in
  int "events" 47337 r.r_events;
  int "completed" 154 r.r_completed;
  int "injected" 6070 ts.Traffic.ts_injected;
  int "delivered" 6070 ts.Traffic.ts_delivered;
  int "reordered" 35 ts.Traffic.ts_reordered;
  int "digest" 0x107a158a ts.Traffic.ts_digest;
  check_probes ts ~p50:25.833743 ~p99:51.195470

let soak_run ?(source = Run.Rotation) config ~seed =
  Run.run ~seed { config with Run.source } (Topologies.b4 ())

let check_soak (r : Run.result) ~events ~completed ~injected ~digest =
  let ts = Option.get r.r_traffic in
  int "events" events r.r_events;
  int "completed" completed r.r_completed;
  int "injected" injected ts.Traffic.ts_injected;
  int "digest" digest ts.Traffic.ts_digest

let test_soak_pins () =
  let r = soak_run Test_soak.smoke_config ~seed:11 in
  check_soak r ~events:35758 ~completed:17 ~injected:7558 ~digest:0xe36dd42;
  int "pushed" 24 r.r_pushed;
  int "churned" 2 r.r_churned;
  int "failures" 2 r.r_element_failures;
  let rc = r.r_recovery in
  int "retx" 5 rc.P4update.Controller.retransmissions;
  int "reroutes" 2 rc.P4update.Controller.reroutes;
  int "resyncs" 3 rc.P4update.Controller.resyncs;
  ms "p99" 1386.644076 r.r_p99_ms

let test_soak_intent_pins () =
  let r = soak_run ~source:Run.Intent Test_soak.smoke_config ~seed:11 in
  check_soak r ~events:62079 ~completed:17 ~injected:12874 ~digest:0x1d2a17b8;
  int "pushed" 28 r.r_pushed;
  int "churned" 10 r.r_churned

let test_soak_quick_pins () =
  let r = soak_run Soak.quick_config ~seed:1 in
  check_soak r ~events:159660 ~completed:37 ~injected:28802 ~digest:0xf14789;
  ms "p99" 750.467812 r.r_p99_ms;
  int "pushed" 54 r.r_pushed;
  ms "p50" 129.755305 r.r_p50_ms;
  ms "probe p99" 152.141583 (Option.get r.r_traffic).Traffic.ts_p99_ms;
  int "aborts" 0 r.r_recovery.P4update.Controller.aborts;
  int "give-ups" 0 r.r_recovery.P4update.Controller.give_ups;
  int "stuck" 0 (List.length r.r_stuck);
  int "leaks" 0 (List.length r.r_leaks);
  Alcotest.(check bool) "ok" true (Run.ok r);
  (* Boundary readings: (injected, pending events, flows, in flight,
     violations) per cycle. *)
  Alcotest.(check (list (pair (pair int int) (pair int (pair int int)))))
    "cycle readings"
    [ ((9575, 5), (12, (0, 0))); ((19159, 3), (12, (0, 0))); ((28802, 1), (12, (0, 0))) ]
    (List.map
       (fun (c : Run.cycle) ->
         ((c.cy_injected, c.cy_pending_events), (c.cy_flows, (c.cy_in_flight, c.cy_violations))))
       r.r_cycles)

(* The fault window opens only at a cycle start, so an open run would
   accept the fault model and inject nothing. *)
let test_open_run_refuses_faults () =
  Alcotest.check_raises "faults need cycles" (Invalid_argument "Run.run: faults need cycles")
    (fun () ->
      ignore
        (Run.run ~seed:1
           { scale_workload with faults = Soak.default_config.Run.faults }
           (Topologies.b4 ())))

(* A run given a trace sink records into it: one [update] span
   per push.  Tracing never perturbs the schedule, so the traced run is
   the untraced run. *)
let test_traced_run () =
  let wl =
    { scale_workload with
      updates = 40;
      audit = Some { Traffic.default_workload with tw_stop_ms = 100.0 } }
  in
  let run ?trace () = Run.run ?trace ~seed:42 wl (Topologies.b4 ()) in
  let sink = Obs.Trace.create () in
  let traced = run ~trace:sink () and plain = run () in
  let updates =
    List.length
      (List.filter
         (function Obs.Trace.Span_begin { name = "update"; _ } -> true | _ -> false)
         (Obs.Trace.events sink))
  in
  Alcotest.(check bool) "pushed some" true (traced.r_pushed > 0);
  int "one update span per push" traced.r_pushed updates;
  int "pushed" plain.r_pushed traced.r_pushed;
  int "events" plain.r_events traced.r_events;
  Alcotest.(check (list (float 0.0))) "completions" plain.r_completion_ms
    traced.r_completion_ms;
  let digest (r : Run.result) = (Option.get r.r_traffic).Traffic.ts_digest in
  int "traffic digest" (digest plain) (digest traced)

(* [ops] is a list of (slot, retire) replacements applied to a
   population of [flows] on [topo] seeded with [seed]. *)
let population_holds topo ~flows (seed, ops) =
  let w = Harness.World.make ~seed (topo ()) in
  let g = Netsim.graph w.Harness.World.net in
  let pop = Run.populate w ~flows in
  let ids () =
    List.map (fun (f : P4update.Controller.flow) -> f.flow_id) (Harness.World.flows w)
  in
  let seen = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace seen id ()) (ids ());
  let two_paths id =
    match Harness.World.find_flow w ~flow_id:id with
    | Some f -> Run.alt_paths g ~src:f.src ~dst:f.dst <> None
    | None -> false
  in
  let registered = ref flows in
  Hashtbl.length seen = flows
  && List.for_all two_paths (ids ())
  && List.for_all
       (fun (slot, retire) ->
         let id = Run.replace pop ~retire (slot mod flows) in
         let fresh = not (Hashtbl.mem seen id) in
         Hashtbl.replace seen id ();
         if not retire then incr registered;
         fresh && two_paths id && List.length (ids ()) = !registered)
       ops

let prop_population name topo =
  QCheck.Test.make ~name:(name ^ " population never reuses a flow id") ~count:20
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 60) (pair small_nat bool)))
    (population_holds topo ~flows:20)

let suite =
  [
    Alcotest.test_case "scale run pinned" `Quick test_scale_pins;
    Alcotest.test_case "scale intent-churn run pinned" `Quick test_scale_intent_pins;
    Alcotest.test_case "scale chinanet run pinned" `Quick test_scale_chinanet_pins;
    Alcotest.test_case "scale run without recorder pinned" `Quick
      test_scale_recorder_off_pins;
    Alcotest.test_case "traffic run pinned" `Quick test_traffic_pins;
    Alcotest.test_case "traffic chinanet run pinned" `Quick test_traffic_chinanet_pins;
    Alcotest.test_case "soak smoke pinned" `Quick test_soak_pins;
    Alcotest.test_case "soak smoke intent-churn pinned" `Quick test_soak_intent_pins;
    Alcotest.test_case "soak quick pinned" `Quick test_soak_quick_pins;
    Alcotest.test_case "a traced run records its pushes" `Quick test_traced_run;
    Alcotest.test_case "an open run refuses faults" `Quick test_open_run_refuses_faults;
    QCheck_alcotest.to_alcotest (prop_population "attmpls" Topologies.attmpls);
    QCheck_alcotest.to_alcotest (prop_population "chinanet" Topologies.chinanet);
  ]
