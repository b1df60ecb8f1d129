(* Tests for the new-flow setup loop (FRM, §6) and the §11 failure
   handling (UNM-loss watchdog + the controller's recovery loop). *)

open P4update

let fig1 () = Topo.Topologies.fig1 ()

let test_frm_routes_new_flow () =
  (* A host injects traffic for a flow nobody installed: the ingress
     reports it (FRM), the controller computes a shortest path and deploys
     it blackhole-free; subsequent packets are delivered. *)
  let w = Harness.World.make (fig1 ()) in
  let flow_id = Topo.Traffic.flow_id_of_pair ~src:0 ~dst:7 land (Wire.flow_space - 1) in
  let deliver_probe seq =
    Switch.inject_data w.switches.(0)
      { Wire.d_flow_id = flow_id; seq; ttl = 64; origin = 0; dst = 7; tag = 0; d_ts = 0 }
  in
  deliver_probe 0;
  let _ = Harness.World.run w in
  (* The route is now installed end to end. *)
  (match Harness.Fwdcheck.trace w.net w.switches ~flow_id ~src:0 with
   | Harness.Fwdcheck.Reaches_egress path ->
     Alcotest.(check int) "starts at ingress" 0 (List.hd path);
     Alcotest.(check int) "ends at egress" 7 (List.nth path (List.length path - 1))
   | o -> Alcotest.failf "flow not routed: %a" Harness.Fwdcheck.pp_outcome o);
  deliver_probe 1;
  let _ = Harness.World.run w in
  Alcotest.(check int) "second packet delivered" 1 (Switch.stats w.switches.(7)).Switch.delivered;
  (* The controller knows the flow now. *)
  match Controller.find_flow w.controller ~flow_id with
  | Some flow -> Alcotest.(check int) "version 1 deployed" 1 flow.Controller.version
  | None -> Alcotest.fail "flow not in the flow DB"

let test_frm_reported_once () =
  let w = Harness.World.make (fig1 ()) in
  Controller.set_auto_route w.controller false;
  let flow_id = Topo.Traffic.flow_id_of_pair ~src:0 ~dst:7 land (Wire.flow_space - 1) in
  for seq = 0 to 4 do
    Switch.inject_data w.switches.(0)
      { Wire.d_flow_id = flow_id; seq; ttl = 64; origin = 0; dst = 7; tag = 0; d_ts = 0 }
  done;
  let _ = Harness.World.run w in
  (* 5 packets injected, no rule: one FRM, four silent drops. *)
  Alcotest.(check int) "controller messages" 1
    (Netsim.counters w.net).Netsim.control_to_controller

let test_watchdog_reports_lost_chain () =
  (* Drop every UNM: the update cannot make progress; armed switches must
     alarm the controller after the timeout. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:500.0) w.switches;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  Netsim.set_data_fault w.net (fun ~from:_ ~to_:_ bytes ->
      match Option.bind (Wire.packet_of_bytes bytes) Wire.control_of_packet with
      | Some c when c.kind = Wire.Unm -> Netsim.Drop
      | Some _ | None -> Netsim.Deliver);
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  let _ = Harness.World.run w in
  Alcotest.(check bool) "alarms raised" true (Controller.alarm_count w.controller > 0);
  (* and the network is still consistent on the old path *)
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "still on old path" Topo.Topologies.fig1_old_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

let test_recovery_survives_unm_loss () =
  (* Drop the first few UNMs; with the watchdog and the §11 recovery loop
     the controller re-pushes the indications and the update completes. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:400.0) w.switches;
  Controller.enable_recovery w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let dropped = ref 0 in
  Netsim.set_data_fault w.net (fun ~from:_ ~to_:_ bytes ->
      match Option.bind (Wire.packet_of_bytes bytes) Wire.control_of_packet with
      | Some c when c.kind = Wire.Unm && !dropped < 3 ->
        incr dropped;
        Netsim.Drop
      | Some _ | None -> Netsim.Deliver);
  let version =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  let _ = Harness.World.run w in
  Alcotest.(check int) "three UNMs were dropped" 3 !dropped;
  (match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
   | Some _ -> ()
   | None -> Alcotest.fail "update never completed despite recovery");
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "converged to new path" Topo.Topologies.fig1_new_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

let test_recovery_bounded_under_unm_loss () =
  (* Permanent UNM loss: the controller must not re-push forever. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:300.0) w.switches;
  Controller.enable_recovery w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  Netsim.set_data_fault w.net (fun ~from:_ ~to_:_ bytes ->
      match Option.bind (Wire.packet_of_bytes bytes) Wire.control_of_packet with
      | Some c when c.kind = Wire.Unm -> Netsim.Drop
      | Some _ | None -> Netsim.Deliver);
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  let events = Harness.World.run w in
  (* The simulation terminates (bounded retries) and the old path stays. *)
  Alcotest.(check bool) "simulation terminated" true (events > 0);
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "old path intact" Topo.Topologies.fig1_old_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

let test_recovery_retransmits_lost_uim () =
  (* Drop the first UIM batch on the control channel: without the §11
     recovery loop the update would hang staged forever; with it the
     controller retransmits the same (flow, version) set and completes. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:400.0) w.switches;
  Controller.enable_recovery ~timeout_ms:500.0 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let dropped = ref 0 in
  Netsim.set_control_fault w.net (fun ~dir _ ->
      match dir with
      | Netsim.To_switch _ when !dropped < List.length Topo.Topologies.fig1_new_path ->
        incr dropped;
        Netsim.Drop
      | _ -> Netsim.Deliver);
  let version =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  let _ = Harness.World.run w in
  (match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
   | Some _ -> ()
   | None -> Alcotest.fail "update never completed despite retransmission");
  (match Controller.recovery_stats w.controller with
   | Some s -> Alcotest.(check bool) "retransmitted" true (s.Controller.retransmissions > 0)
   | None -> Alcotest.fail "recovery not armed");
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "converged to new path" Topo.Topologies.fig1_new_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

let test_recovery_survives_lost_success_ufm () =
  (* The data plane finishes but the success UFM is lost on the uplink:
     the controller's retransmission makes the already-committed ingress
     re-acknowledge, so completion is eventually recorded. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:400.0) w.switches;
  Controller.enable_recovery ~timeout_ms:500.0 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let dropped = ref 0 in
  Netsim.set_control_fault w.net (fun ~dir bytes ->
      match dir with
      | Netsim.To_controller _ when !dropped = 0 ->
        (match Option.bind (Wire.packet_of_bytes bytes) Wire.control_of_packet with
         | Some c when c.kind = Wire.Ufm && c.layer = Wire.ufm_success ->
           incr dropped;
           Netsim.Drop
         | _ -> Netsim.Deliver)
      | _ -> Netsim.Deliver);
  let version =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  let _ = Harness.World.run w in
  Alcotest.(check int) "the success UFM was dropped" 1 !dropped;
  match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
  | Some _ -> ()
  | None -> Alcotest.fail "completion never recorded despite re-acknowledgement"

let test_restart_resyncs_uib () =
  (* The egress power-cycles — no reroute can avoid the flow's endpoint,
     so the controller must wait for the restore, observe a blank UIB
     (reads as "no rule") and re-deploy the flow at a fresh version,
     rebuilding the registers from the NIB. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:400.0) w.switches;
  Controller.enable_recovery ~timeout_ms:500.0 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let egress = 7 in
  Netsim.fail_node w.net ~node:egress ~at:50.0;
  Netsim.restore_node w.net ~node:egress ~at:400.0;
  let wiped = ref None in
  Dessim.Sim.schedule_at w.sim ~time:401.0 (fun () ->
      wiped := Some (Switch.forwarding_port w.switches.(egress) ~flow_id:flow.flow_id));
  let _ = Harness.World.run w in
  (* Right after the restart the register file read as factory-blank ... *)
  Alcotest.(check (option int)) "UIB wiped on restart" (Some Wire.port_none) !wiped;
  (* ... and the resync re-deployed the flow end to end. *)
  (match Controller.recovery_stats w.controller with
   | Some s -> Alcotest.(check bool) "resynced" true (s.Controller.resyncs > 0)
   | None -> Alcotest.fail "recovery not armed");
  (match Controller.find_flow w.controller ~flow_id:flow.flow_id with
   | Some f -> Alcotest.(check bool) "fresh version deployed" true (f.Controller.version > 1)
   | None -> Alcotest.fail "flow lost");
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "path restored" Topo.Topologies.fig1_old_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

let test_node_failure_reroutes () =
  (* A mid-path node dies and stays down long enough for the alarm-driven
     reroute: the controller re-labels the flow around the failure. *)
  let w = Harness.World.make (fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:400.0) w.switches;
  Controller.enable_recovery ~timeout_ms:500.0 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let mid = List.nth Topo.Topologies.fig1_old_path 1 in
  Netsim.fail_node w.net ~node:mid ~at:50.0;
  let _ = Harness.World.run ~until:60_000.0 w in
  (match Controller.recovery_stats w.controller with
   | Some s -> Alcotest.(check bool) "rerouted" true (s.Controller.reroutes > 0)
   | None -> Alcotest.fail "recovery not armed");
  match Controller.find_flow w.controller ~flow_id:flow.flow_id with
  | Some f ->
    Alcotest.(check bool) "new path avoids the dead node" false (List.mem mid f.Controller.path);
    (match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
     | Harness.Fwdcheck.Reaches_egress path ->
       Alcotest.(check (list int)) "forwarding follows the reroute" f.Controller.path path
     | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o)
  | None -> Alcotest.fail "flow lost"

(* Every §11 ladder step emits its trace instant, hung under the root
   span of the update it acts on while that update is in flight.  Three
   fig1 runs, each with the SL update to the new path in flight:
   - node 0 loses both links and (0, 1) comes back at 150 ms, so the
     restored link's retransmission fires (it emitted no instant once);
   - node 5 dies for good, so the flow reroutes onto the old path;
   - the egress restarts, so the controller resyncs it. *)
let recovery_instants ~faults =
  let w = Harness.World.make (fig1 ()) in
  Controller.enable_recovery ~timeout_ms:500.0 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let sink = Obs.Trace.create () in
  Obs.Trace.install sink;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      ignore
        (Controller.update_flow w.controller ~flow_id:flow.flow_id
           ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ());
      faults w.net;
      ignore (Harness.World.run ~until:5_000.0 w));
  let parents name =
    List.filter_map
      (function
        | Obs.Trace.Instant { name = n; parent; _ } when n = name -> Some parent
        | _ -> None)
      (Obs.Trace.events sink)
  in
  (Option.get (Controller.recovery_stats w.controller), parents)

let test_recovery_instants_anchored () =
  let anchored what parents =
    Alcotest.(check bool) (what ^ " emitted") true (parents <> []);
    Alcotest.(check bool) (what ^ " under the update's root span") true
      (List.for_all (fun p -> p <> 0) parents)
  in
  let stats, parents =
    recovery_instants ~faults:(fun net ->
        Netsim.fail_link net ~u:0 ~v:4 ~at:10.0;
        Netsim.fail_link net ~u:0 ~v:1 ~at:10.0;
        Netsim.restore_link net ~u:0 ~v:1 ~at:150.0)
  in
  Alcotest.(check int) "one instant per retransmission" stats.Controller.retransmissions
    (List.length (parents "recovery.retransmit"));
  anchored "restored-link retransmission" (parents "recovery.retransmit");
  let _, parents = recovery_instants ~faults:(fun net -> Netsim.fail_node net ~node:5 ~at:10.0) in
  anchored "reroute" (parents "recovery.reroute");
  let _, parents =
    recovery_instants ~faults:(fun net ->
        Netsim.fail_node net ~node:7 ~at:10.0;
        Netsim.restore_node net ~node:7 ~at:100.0)
  in
  anchored "resync" (parents "recovery.resync")

let suite =
  [
    Alcotest.test_case "FRM routes a new flow" `Quick test_frm_routes_new_flow;
    Alcotest.test_case "FRM reported once" `Quick test_frm_reported_once;
    Alcotest.test_case "watchdog reports a lost chain" `Quick test_watchdog_reports_lost_chain;
    Alcotest.test_case "recovery survives UNM loss" `Quick test_recovery_survives_unm_loss;
    Alcotest.test_case "recovery bounded under UNM loss" `Quick
      test_recovery_bounded_under_unm_loss;
    Alcotest.test_case "recovery retransmits a lost UIM" `Quick
      test_recovery_retransmits_lost_uim;
    Alcotest.test_case "recovery survives a lost success UFM" `Quick
      test_recovery_survives_lost_success_ufm;
    Alcotest.test_case "restart wipes and resyncs the UIB" `Quick test_restart_resyncs_uib;
    Alcotest.test_case "node failure triggers a reroute" `Quick test_node_failure_reroutes;
    Alcotest.test_case "recovery instants hang under the update" `Quick
      test_recovery_instants_anchored;
  ]
