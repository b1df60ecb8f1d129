(* Properties of the chaos harness: any finite-loss fault schedule leaves
   the invariants intact and converges once faults stop; identical seeds
   reproduce identical runs; without the recovery loop the system degrades
   gracefully (alarms, no silent wedge of the committed state). *)

module Chaos = Harness.Chaos
module Run_config = Harness.Run_config

(* Small fault window and horizon keep the property cheap per case. *)
let quick_plan =
  { Run_config.default_faults with fp_window_ms = 2000.0; fp_horizon_ms = 60_000.0 }

let run ?(plan = quick_plan) ~scenario ~seed () =
  Chaos.run (Run_config.make ~seed ~fault_plan:plan ~recorder:false ()) ~scenario

let scenario_of_case n =
  match n mod 3 with 0 -> Chaos.Fig1 | 1 -> Chaos.B4 | _ -> Chaos.Fat_tree

let prop_finite_loss_converges =
  QCheck.Test.make ~name:"finite-loss schedules converge once faults stop" ~count:30
    QCheck.(int_bound 10_000)
    (fun case ->
      let scenario = scenario_of_case case in
      let seed = 100 + case in
      let r = run ~scenario ~seed () in
      if r.Chaos.r_violations <> [] then
        QCheck.Test.fail_reportf "invariant violations in %s" (Chaos.report_line r)
      else if r.Chaos.r_converged <> r.Chaos.r_flows then
        QCheck.Test.fail_reportf "did not converge: %s" (Chaos.report_line r)
      else true)

let test_same_seed_same_trace () =
  let r1 = run ~scenario:Chaos.B4 ~seed:42 () in
  let r2 = run ~scenario:Chaos.B4 ~seed:42 () in
  Alcotest.(check int) "identical trace hash" r1.Chaos.r_trace_hash r2.Chaos.r_trace_hash;
  Alcotest.(check string) "identical report" (Chaos.report_line r1) (Chaos.report_line r2);
  let r3 = run ~scenario:Chaos.B4 ~seed:43 () in
  Alcotest.(check bool) "different seed, different trace" true
    (r3.Chaos.r_trace_hash <> r1.Chaos.r_trace_hash)

let test_no_recovery_degrades_gracefully () =
  (* Data-plane-only faults with retransmission disabled: today's behaviour
     — watchdog alarms where the chain is lost, committed state never
     violates the invariants, and the run terminates (no silent hang). *)
  let plan =
    {
      quick_plan with
      fp_recovery = false;
      fp_control_prob = 0.0;
      fp_max_element_failures = 0;
      fp_data_prob = 0.15;
    }
  in
  let alarms = ref 0 and stuck = ref 0 in
  for seed = 1 to 10 do
    let r = run ~plan ~scenario:Chaos.Fig1 ~seed () in
    Alcotest.(check (list (triple (float 0.0) int string)))
      (Printf.sprintf "no violations (seed %d)" seed)
      []
      (List.map (fun v -> (v.Chaos.v_time, v.Chaos.v_flow, v.Chaos.v_what)) r.Chaos.r_violations);
    Alcotest.(check int)
      (Printf.sprintf "no recovery actions (seed %d)" seed)
      0
      (r.Chaos.r_retransmissions + r.Chaos.r_reroutes + r.Chaos.r_resyncs);
    alarms := !alarms + r.Chaos.r_alarms;
    if r.Chaos.r_converged < r.Chaos.r_flows then incr stuck
  done;
  Alcotest.(check bool) "some updates were wedged by the losses" true (!stuck > 0);
  Alcotest.(check bool) "the wedges were reported via watchdog alarms" true (!alarms > 0)

(* [Controller.completion_time] is a (flow, version) table filled as
   reports arrive.  The reference is the scan it replaced: the first
   success in the report log, oldest first, which this test keeps
   through [Controller.on_report].  A chaos-style run (lossy
   control channel, a failed link, recovery with retransmissions and
   reroutes, two updates per flow) produces duplicate, late and alarm
   reports for the index to get wrong. *)
let log_scan reports ~flow_id ~version =
  List.find_map
    (fun (r : P4update.Controller.report) ->
      if r.r_flow = flow_id && r.r_version = version
         && r.r_status = P4update.Wire.ufm_success
      then Some r.r_time
      else None)
    reports

let test_completion_index_matches_log () =
  let module C = P4update.Controller in
  let module W = Harness.World in
  let topo = Topo.Topologies.b4 () in
  let g = topo.Topo.Topologies.graph in
  let w = W.make ~seed:5 topo in
  let sim = w.W.sim in
  let log = ref [] in
  C.on_report w.W.controller (fun r -> log := r :: !log);
  Array.iter (fun sw -> P4update.Switch.enable_watchdog sw ~timeout_ms:400.0) w.W.switches;
  C.enable_recovery w.W.controller;
  let pairs = [ (0, 7); (1, 10); (2, 11); (3, 9); (4, 8); (5, 6) ] in
  let flows =
    List.filter_map
      (fun (src, dst) ->
        match Topo.Graph.k_shortest_paths g ~src ~dst ~k:2 with
        | [ old_path; new_path ] ->
          Some (W.install_flow w ~src ~dst ~size:100 ~path:old_path, old_path, new_path)
        | _ -> None)
      pairs
  in
  List.iteri
    (fun i ((f : C.flow), old_path, new_path) ->
      let push at path =
        Dessim.Sim.schedule_at sim ~time:at (fun () ->
            ignore (C.update_flow w.W.controller ~flow_id:f.flow_id ~new_path:path ()))
      in
      push (100.0 +. (37.0 *. float_of_int i)) new_path;
      push (2500.0 +. (41.0 *. float_of_int i)) old_path)
    flows;
  let lossy _ =
    if Dessim.Sim.uniform sim ~bound:1.0 < 0.1 then
      Chaos.draw_verdict sim ~downgrade_corrupt:true
    else Netsim.Deliver
  in
  (* Duplicated UFMs give the index repeated successes to ignore. *)
  Netsim.set_control_fault w.W.net (fun ~dir bytes ->
      match dir with
      | Netsim.To_controller _ when Dessim.Sim.uniform sim ~bound:1.0 < 0.3 -> Netsim.Duplicate
      | _ -> lossy bytes);
  Netsim.set_data_fault w.W.net (fun ~from:_ ~to_:_ bytes ->
      if Chaos.is_control_frame bytes then lossy bytes else Netsim.Deliver);
  (match Topo.Graph.edges g with
   | e :: _ ->
     Netsim.fail_link w.W.net ~u:e.Topo.Graph.u ~v:e.Topo.Graph.v ~at:150.0;
     Netsim.restore_link w.W.net ~u:e.Topo.Graph.u ~v:e.Topo.Graph.v ~at:1200.0
   | [] -> ());
  Dessim.Sim.schedule_at sim ~time:4000.0 (fun () ->
      Netsim.clear_control_fault w.W.net;
      Netsim.clear_data_fault w.W.net);
  ignore (W.run ~until:30_000.0 w);
  let reports = List.rev !log in
  let completed = ref 0 in
  List.iter
    (fun ((f : C.flow), _, _) ->
      for version = 0 to f.version + 1 do
        let indexed = C.completion_time w.W.controller ~flow_id:f.flow_id ~version in
        if indexed <> None then incr completed;
        Alcotest.(check (option (float 0.0)))
          (Printf.sprintf "flow %d version %d" f.flow_id version)
          (log_scan reports ~flow_id:f.flow_id ~version)
          indexed
      done)
    flows;
  Alcotest.(check bool) "updates completed" true (!completed >= List.length flows);
  let successes = Hashtbl.create 16 in
  List.iter
    (fun (r : C.report) ->
      if r.r_status = P4update.Wire.ufm_success then
        Hashtbl.replace successes (r.r_flow, r.r_version)
          (1 + Option.value ~default:0 (Hashtbl.find_opt successes (r.r_flow, r.r_version))))
    reports;
  Alcotest.(check bool) "some update reported success twice" true
    (Hashtbl.fold (fun _ n acc -> acc || n > 1) successes false);
  Alcotest.(check bool) "faults were injected" true
    ((Netsim.counters w.W.net).Netsim.dropped_by_fault > 0)

(* Every layer's counters on one fixed faulted world: b4 at seed 3,
   three flows moved and moved back under the chaos fault mix on both
   planes for 3 s (data frames really corrupted), up to two scheduled
   element failures, §11 recovery and probe traffic.  A counter that
   changes layer, stops counting or counts twice moves a pin here. *)
let test_counters_pinned () =
  let module C = P4update.Controller in
  let module W = Harness.World in
  let topo = Topo.Topologies.b4 () in
  let g = topo.Topo.Topologies.graph in
  let w = W.make ~seed:3 topo in
  let sim = w.W.sim in
  Array.iter
    (fun sw ->
      P4update.Switch.enable_watchdog sw ~timeout_ms:Run_config.default_watchdog_ms)
    w.W.switches;
  C.enable_recovery ~deadline_ms:1200.0 w.W.controller;
  List.iteri
    (fun i (src, dst) ->
      match Topo.Graph.k_shortest_paths g ~src ~dst ~k:2 with
      | [ old_path; new_path ] ->
        let f = W.install_flow w ~src ~dst ~size:100 ~path:old_path in
        let push at path =
          Dessim.Sim.schedule_at sim ~time:at (fun () ->
              ignore
                (C.update_flow w.W.controller ~flow_id:f.C.flow_id ~new_path:path
                   ~update_type:P4update.Wire.Dl ()))
        in
        push (100.0 +. (300.0 *. float_of_int i)) new_path;
        push (1600.0 +. (300.0 *. float_of_int i)) old_path
      | _ -> Alcotest.fail "every pair has two paths")
    [ (0, 11); (2, 9); (5, 10) ];
  let traffic =
    Harness.Traffic.attach
      ~workload:
        { Harness.Traffic.default_workload with Harness.Traffic.tw_stop_ms = 3000.0 }
      w
  in
  Harness.Traffic.start traffic;
  let faulted bytes =
    if Dessim.Sim.now sim < 3000.0 && Dessim.Sim.uniform sim ~bound:1.0 < 0.2 then
      Chaos.draw_verdict sim ~downgrade_corrupt:(Chaos.is_control_frame bytes)
    else Netsim.Deliver
  in
  Netsim.set_data_fault w.W.net (fun ~from:_ ~to_:_ bytes -> faulted bytes);
  Netsim.set_control_fault w.W.net (fun ~dir:_ bytes -> faulted bytes);
  let failures = Chaos.schedule_element_failures w ~window_ms:3000.0 ~max_failures:2 in
  (* Two frames too short for their data header, at two ingresses. *)
  let short =
    Bytes.sub
      (P4update.Wire.data_to_bytes
         { P4update.Wire.d_flow_id = 1; seq = 0; ttl = 64; origin = 0; dst = 11; tag = 0;
           d_ts = 0 })
      0 10
  in
  Netsim.host_inject w.W.net ~node:0 ~delay:50.0 short;
  Netsim.host_inject w.W.net ~node:5 ~delay:2000.0 short;
  ignore (W.run ~until:20_000.0 w);
  let n = Netsim.counters w.W.net in
  let r = Option.get (C.recovery_stats w.W.controller) in
  let parse_errors =
    Array.fold_left
      (fun acc sw -> acc + (P4update.Switch.stats sw).P4update.Switch.parse_errors)
      0 w.W.switches
  in
  Alcotest.(check (list (pair string int)))
    "counters"
    [ ("element failures", 1);
      ("data_packets", 10242); ("data_injected", 3697); ("control_to_switch", 83);
      ("control_to_controller", 33); ("resubmissions", 4190); ("dropped_by_fault", 927);
      ("delayed_by_fault", 713); ("corrupted_by_fault", 330); ("duplicated_by_fault", 323);
      ("dropped_by_failure", 446);
      ("retransmissions", 5); ("reroutes", 1); ("resyncs", 1); ("aborts", 4);
      ("give_ups", 4);
      ("parse errors", 2) ]
    [ ("element failures", failures);
      ("data_packets", n.Netsim.data_packets); ("data_injected", n.Netsim.data_injected);
      ("control_to_switch", n.Netsim.control_to_switch);
      ("control_to_controller", n.Netsim.control_to_controller);
      ("resubmissions", n.Netsim.resubmissions);
      ("dropped_by_fault", n.Netsim.dropped_by_fault);
      ("delayed_by_fault", n.Netsim.delayed_by_fault);
      ("corrupted_by_fault", n.Netsim.corrupted_by_fault);
      ("duplicated_by_fault", n.Netsim.duplicated_by_fault);
      ("dropped_by_failure", n.Netsim.dropped_by_failure);
      ("retransmissions", r.C.retransmissions); ("reroutes", r.C.reroutes);
      ("resyncs", r.C.resyncs); ("aborts", r.C.aborts); ("give_ups", r.C.give_ups);
      ("parse errors", parse_errors) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_finite_loss_converges;
    Alcotest.test_case "every layer's counters pinned" `Quick test_counters_pinned;
    Alcotest.test_case "same seed, same trace" `Quick test_same_seed_same_trace;
    Alcotest.test_case "no recovery degrades gracefully" `Quick
      test_no_recovery_degrades_gracefully;
    Alcotest.test_case "completion index = report-log scan" `Quick
      test_completion_index_matches_log;
  ]
