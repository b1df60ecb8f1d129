(* The burst-run loop.

   - Pins: the scale, traffic and soak runs are pure functions of their
     seed, so their deterministic outputs are pinned to literals here.
     Same-seed repeats only prove a run is reproducible; these pins
     prove it is unchanged, so a change to the run loop that shifts one
     RNG draw or one event fails here.
   - The population: over random seeds and random retire/admit
     interleavings, no flow id is admitted twice (ids are masked pair
     hashes, so distinct pairs share them), every admitted pair has two
     alternative paths, and the Flow DB tracks the population. *)

module Run = Harness.Run
module Run_config = Harness.Run_config
module Scale = Harness.Scale
module Soak = Harness.Soak
module Traffic = Harness.Traffic
module Topologies = Topo.Topologies

let int = Alcotest.(check int)
let ms = Alcotest.(check (float 1e-6))

let scale_workload = { Scale.default_workload with Run.updates = 200; flows = 50 }

let scale_run ?(intent_churn = false) () =
  Run.run scale_workload (Run_config.make ~seed:42 ~intent_churn ()) (Topologies.attmpls ())

let check_scale (r : Run.result) ~pushed ~completed ~events ~bursts ~churned ~p50 ~p99 =
  int "pushed" pushed r.r_pushed;
  int "completed" completed r.r_completed;
  int "events" events r.r_events;
  int "bursts" bursts r.r_bursts;
  int "churned" churned r.r_churned;
  ms "p50" p50 r.r_p50_ms;
  ms "p99" p99 r.r_p99_ms

let test_scale_pins () =
  check_scale (scale_run ()) ~pushed:200 ~completed:162 ~events:3040 ~bursts:25 ~churned:2
    ~p50:193.285595 ~p99:216.030560

let test_scale_intent_pins () =
  check_scale (scale_run ~intent_churn:true ()) ~pushed:203 ~completed:159 ~events:3913
    ~bursts:46 ~churned:50 ~p50:122.259334 ~p99:191.139223

let test_traffic_pins () =
  let r =
    Run.run
      { scale_workload with
        audit = Some { Traffic.default_workload with tw_stop_ms = 300.0 } }
      (Run_config.make ~seed:42 ()) (Topologies.attmpls ())
  in
  let ts = Option.get r.r_traffic in
  int "events" 34735 r.r_events;
  int "completed" 169 r.r_completed;
  int "injected" 6115 ts.Traffic.ts_injected;
  int "delivered" 6115 ts.Traffic.ts_delivered;
  int "reordered" 47 ts.Traffic.ts_reordered;
  int "digest" 0x13a5b370 ts.Traffic.ts_digest

let soak_run ?(intent_churn = false) config ~seed =
  Run.run config (Run_config.make ~seed ~intent_churn ()) (Topologies.b4 ())

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
  let r = soak_run ~intent_churn:true Test_soak.smoke_config ~seed:11 in
  check_soak r ~events:62079 ~completed:17 ~injected:12874 ~digest:0x1d2a17b8;
  int "pushed" 28 r.r_pushed;
  int "churned" 10 r.r_churned

let test_soak_quick_pins () =
  let r = soak_run Soak.quick_config ~seed:1 in
  check_soak r ~events:159660 ~completed:37 ~injected:28802 ~digest:0xf14789;
  ms "p99" 750.467812 r.r_p99_ms

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
    Alcotest.test_case "traffic run pinned" `Quick test_traffic_pins;
    Alcotest.test_case "soak smoke pinned" `Quick test_soak_pins;
    Alcotest.test_case "soak smoke intent-churn pinned" `Quick test_soak_intent_pins;
    Alcotest.test_case "soak quick pinned" `Quick test_soak_quick_pins;
    QCheck_alcotest.to_alcotest (prop_population "attmpls" Topologies.attmpls);
    QCheck_alcotest.to_alcotest (prop_population "chinanet" Topologies.chinanet);
  ]
