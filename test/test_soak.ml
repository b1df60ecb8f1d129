(* Tests for the §11 abort/rollback path and the soak monitor: retry
   exhaustion on a dead path, abort racing a late success UFM, the
   permanent-partition pin (aborted and reverted, never silently stuck),
   the ladder's events on updates in an end state, and a
   pinned-determinism soak smoke run. *)

open P4update

let recovery_or_fail w =
  match Controller.recovery_stats w.Harness.World.controller with
  | Some s -> s
  | None -> Alcotest.fail "recovery not armed"

let test_retry_exhaustion_dead_then_restored () =
  (* Both of the source's neighbours die mid-update: no reroute can
     survive, retries exhaust, and the update must be aborted — not
     silently dropped.  When the nodes come back, the restart resync
     re-deploys the flow on its (reverted) old path at a fresh version;
     the aborted version itself must never resurrect. *)
  let w = Harness.World.make (Topo.Topologies.fig2 ()) in
  let monitor = Harness.Invariants.create w in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:300.0) w.switches;
  Controller.enable_recovery ~timeout_ms:300.0 ~max_retries:3 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:4 ~size:100
      ~path:Topo.Topologies.fig2_config_a
  in
  (* Node 0's only neighbours are 1 and 3 (fig2): once both are down the
     source is isolated and [reroute] has nothing to offer.  The first
     failure may legitimately reroute the flow (that is the §11 ladder
     doing its job), so the pre-push path is captured at push time. *)
  Netsim.fail_node w.net ~node:1 ~at:30.0;
  Netsim.fail_node w.net ~node:3 ~at:45.0;
  Netsim.restore_node w.net ~node:1 ~at:8_000.0;
  Netsim.restore_node w.net ~node:3 ~at:8_000.0;
  let version = ref 0 in
  let path_before = ref [] in
  Dessim.Sim.schedule_at w.sim ~time:100.0 (fun () ->
      (match Controller.find_flow w.controller ~flow_id:flow.flow_id with
       | Some f -> path_before := f.Controller.path
       | None -> ());
      version :=
        Controller.update_flow w.controller ~flow_id:flow.flow_id
          ~new_path:Topo.Topologies.fig2_config_b ~update_type:Wire.Sl ());
  let _ = Harness.World.run ~until:60_000.0 w in
  let rc = recovery_or_fail w in
  Alcotest.(check bool) "gave up" true (rc.Controller.give_ups > 0);
  Alcotest.(check bool) "aborted" true (rc.Controller.aborts > 0);
  (* The aborted version stays burned even after the restore... *)
  Alcotest.(check (option int)) "aborted version recorded" (Some !version)
    (Controller.aborted_version w.controller ~flow_id:flow.flow_id);
  Alcotest.(check bool) "aborted version never completed" true
    (Controller.completion_time w.controller ~flow_id:flow.flow_id ~version:!version
     = None);
  (* ... and the restart resync re-deployed the reverted path. *)
  Alcotest.(check bool) "resynced after restore" true (rc.Controller.resyncs > 0);
  (match Controller.find_flow w.controller ~flow_id:flow.flow_id with
   | Some f ->
     Alcotest.(check (list int)) "flow reverted to its pre-push path"
       !path_before f.Controller.path;
     Alcotest.(check bool) "resync version supersedes the abort" true
       (f.Controller.version > !version)
   | None -> Alcotest.fail "flow lost");
  (match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
   | Harness.Fwdcheck.Reaches_egress path ->
     Alcotest.(check (list int)) "forwarding matches the reverted path"
       !path_before path
   | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o);
  Alcotest.(check int) "no invariant violation" 0
    (List.length (Harness.Invariants.violations monitor))

let test_abort_races_late_success () =
  (* The data plane commits end to end but the success UFM is held on
     the uplink past the operator deadline: the controller aborts, the
     withdraws are no-ops everywhere (everything already committed), and
     the late success must rescind the abort and restore the pushed
     path. *)
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:5_000.0) w.switches;
  Controller.enable_recovery ~timeout_ms:5_000.0 ~deadline_ms:600.0 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path
  in
  let held = ref 0 in
  Netsim.set_control_fault w.net (fun ~dir bytes ->
      match dir with
      | Netsim.To_controller _ -> (
        match Option.bind (Wire.packet_of_bytes bytes) Wire.control_of_packet with
        | Some c when c.kind = Wire.Ufm && c.layer = Wire.ufm_success ->
          incr held;
          Netsim.Delay 1_500.0
        | _ -> Netsim.Deliver)
      | _ -> Netsim.Deliver);
  let version =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  let _ = Harness.World.run ~until:60_000.0 w in
  Alcotest.(check bool) "a success UFM was held" true (!held > 0);
  let rc = recovery_or_fail w in
  Alcotest.(check bool) "deadline abort fired" true
    (rc.Controller.give_ups > 0 && rc.Controller.aborts > 0);
  (* The late success rescinded the abort... *)
  Alcotest.(check (option int)) "abort rescinded" None
    (Controller.aborted_version w.controller ~flow_id:flow.flow_id);
  (match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
   | Some _ -> ()
   | None -> Alcotest.fail "completion never recorded");
  (* ... and the flow is back on the path the data plane committed. *)
  (match Controller.find_flow w.controller ~flow_id:flow.flow_id with
   | Some f ->
     Alcotest.(check (list int)) "pushed path restored"
       Topo.Topologies.fig1_new_path f.Controller.path
   | None -> Alcotest.fail "flow lost");
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "forwarding on the new path"
      Topo.Topologies.fig1_new_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

let test_abort_idempotent () =
  (* Abort is version-checked and idempotent: the first call on an
     in-flight update succeeds, the second is a no-op, and a call with
     nothing in flight returns false. *)
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path
  in
  Alcotest.(check bool) "nothing in flight: no-op" false
    (Controller.abort_update w.controller ~flow_id:flow.flow_id);
  ignore
    (Controller.update_flow w.controller ~flow_id:flow.flow_id
       ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ());
  let first = ref false and second = ref false in
  Dessim.Sim.schedule_at w.sim ~time:0.5 (fun () ->
      first := Controller.abort_update w.controller ~flow_id:flow.flow_id;
      second := Controller.abort_update w.controller ~flow_id:flow.flow_id);
  let _ = Harness.World.run w in
  Alcotest.(check bool) "first abort taken" true !first;
  Alcotest.(check bool) "second abort is a no-op" false !second;
  match Controller.find_flow w.controller ~flow_id:flow.flow_id with
  | Some f ->
    Alcotest.(check (list int)) "flow reverted" Topo.Topologies.fig1_old_path
      f.Controller.path
  | None -> Alcotest.fail "flow lost"

let test_permanent_partition_aborts_and_reverts () =
  (* The acceptance pin: a permanent partition of the pushed path (both
     of the ingress's neighbours die, no restore) must end with the
     update aborted and the Flow DB reverted — not silently stuck with
     staged state. *)
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  let monitor = Harness.Invariants.create w in
  Array.iter (fun sw -> Switch.enable_watchdog sw ~timeout_ms:300.0) w.switches;
  Controller.enable_recovery ~timeout_ms:300.0 ~max_retries:3 w.controller;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path
  in
  (* Node 0's only neighbours are 1 and 4 (fig1): once both are down,
     permanently, the ingress is cut off and no reroute can survive.
     The update is pushed into the partition. *)
  Netsim.fail_node w.net ~node:1 ~at:30.0;
  Netsim.fail_node w.net ~node:4 ~at:40.0;
  let version = ref 0 in
  Dessim.Sim.schedule_at w.sim ~time:100.0 (fun () ->
      version :=
        Controller.update_flow w.controller ~flow_id:flow.flow_id
          ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ());
  let _ = Harness.World.run ~until:60_000.0 w in
  let rc = recovery_or_fail w in
  Alcotest.(check bool) "gave up and aborted" true
    (rc.Controller.give_ups > 0 && rc.Controller.aborts > 0);
  Alcotest.(check (option int)) "aborted version recorded" (Some !version)
    (Controller.aborted_version w.controller ~flow_id:flow.flow_id);
  (match Controller.find_flow w.controller ~flow_id:flow.flow_id with
   | Some f ->
     Alcotest.(check (list int)) "Flow DB reverted to the old path"
       Topo.Topologies.fig1_old_path f.Controller.path
   | None -> Alcotest.fail "flow lost");
  Alcotest.(check int) "no invariant violation across the abort" 0
    (List.length (Harness.Invariants.violations monitor))

(* The remaining edges of DESIGN §4a's diagram: events that reach an
   update in an end state (completed, superseded, aborted, retired) must
   find it dead.  [watch_downlink] records every controller-to-switch
   frame as (kind, version) and drops those [drop] selects. *)
let watch_downlink ?(drop = fun _ -> false) (w : Harness.World.t) =
  let sent = ref [] in
  Netsim.set_control_fault w.net (fun ~dir bytes ->
      match (dir, Option.bind (Wire.packet_of_bytes bytes) Wire.control_of_packet) with
      | Netsim.To_switch _, Some c ->
        sent := (c.Wire.kind, c.Wire.version_new) :: !sent;
        if drop c then Netsim.Drop else Netsim.Deliver
      | _ -> Netsim.Deliver);
  sent

let count sent kind version =
  List.length (List.filter (fun (k, v) -> k = kind && v = version) !sent)

let install_fig1 () =
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path
  in
  (w, flow)

let new_path_nodes = List.length Topo.Topologies.fig1_new_path

let push_new_path w (flow : Controller.flow) =
  Controller.update_flow w.Harness.World.controller ~flow_id:flow.flow_id
    ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()

let check_no_recovery w =
  let rc = recovery_or_fail w in
  Alcotest.(check int) "no retransmission" 0 rc.Controller.retransmissions;
  Alcotest.(check int) "no give-up" 0 rc.Controller.give_ups;
  Alcotest.(check int) "no abort" 0 rc.Controller.aborts

let test_deadline_after_success () =
  let w, flow = install_fig1 () in
  Controller.enable_recovery ~timeout_ms:5_000.0 ~deadline_ms:600.0 w.controller;
  let sent = watch_downlink w in
  let version = push_new_path w flow in
  let _ = Harness.World.run ~until:60_000.0 w in
  (match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
   | Some t -> Alcotest.(check bool) "completed before the deadline" true (t < 600.0)
   | None -> Alcotest.fail "update never completed");
  Alcotest.(check int) "no WDM" 0 (count sent Wire.Wdm version);
  check_no_recovery w;
  Alcotest.(check (option int)) "not aborted" None
    (Controller.aborted_version w.controller ~flow_id:flow.flow_id)

let test_superseded_backoff () =
  (* The first push's UIMs are all lost, so only its own backoff timers
     could ever resend them; a second push supersedes it first. *)
  let w, flow = install_fig1 () in
  Controller.enable_recovery ~timeout_ms:300.0 ~max_retries:3 w.controller;
  let superseded = flow.Controller.version + 1 in
  let sent =
    watch_downlink w ~drop:(fun c -> c.Wire.kind = Wire.Uim && c.Wire.version_new = superseded)
  in
  Alcotest.(check int) "first push" superseded (push_new_path w flow);
  let latest = ref 0 in
  Dessim.Sim.schedule_at w.sim ~time:100.0 (fun () -> latest := push_new_path w flow);
  let _ = Harness.World.run ~until:60_000.0 w in
  Alcotest.(check bool) "the superseding update completed" true
    (Controller.completion_time w.controller ~flow_id:flow.flow_id ~version:!latest <> None);
  Alcotest.(check int) "superseded UIMs sent once" new_path_nodes
    (count sent Wire.Uim superseded);
  check_no_recovery w

let test_link_restore_after_abort () =
  (* (2, 7) is on the old path only: its failure leaves the in-flight
     update alone, the abort reverts the flow onto it, and its restore
     reaches the aborted version. *)
  let w, flow = install_fig1 () in
  Controller.enable_recovery ~timeout_ms:5_000.0 w.controller;
  let aborted = flow.Controller.version + 1 in
  let sent =
    watch_downlink w ~drop:(fun c -> c.Wire.kind = Wire.Uim && c.Wire.version_new = aborted)
  in
  Alcotest.(check int) "pushed" aborted (push_new_path w flow);
  Netsim.fail_link w.net ~u:2 ~v:7 ~at:50.0;
  let took = ref false in
  Dessim.Sim.schedule_at w.sim ~time:100.0 (fun () ->
      took := Controller.abort_update w.controller ~flow_id:flow.flow_id);
  Netsim.restore_link w.net ~u:2 ~v:7 ~at:200.0;
  let _ = Harness.World.run ~until:60_000.0 w in
  Alcotest.(check bool) "aborted" true !took;
  Alcotest.(check (option int)) "still aborted" (Some aborted)
    (Controller.aborted_version w.controller ~flow_id:flow.flow_id);
  Alcotest.(check int) "aborted UIMs sent once" new_path_nodes (count sent Wire.Uim aborted);
  Alcotest.(check int) "no retransmission" 0
    (recovery_or_fail w).Controller.retransmissions

let test_retire_silences_timers () =
  let run ~retire =
    let w, flow = install_fig1 () in
    Controller.enable_recovery ~timeout_ms:300.0 ~max_retries:3 ~deadline_ms:2_000.0
      w.controller;
    let sent = watch_downlink w ~drop:(fun c -> c.Wire.kind = Wire.Uim) in
    let version = push_new_path w flow in
    if retire then
      Dessim.Sim.schedule_at w.sim ~time:50.0 (fun () ->
          Controller.retire_flow w.controller ~flow_id:flow.flow_id);
    let _ = Harness.World.run ~until:60_000.0 w in
    (w, count sent Wire.Uim version)
  in
  let kept, _ = run ~retire:false in
  let rc = recovery_or_fail kept in
  Alcotest.(check bool) "kept: the timers retransmit and give up" true
    (rc.Controller.retransmissions > 0 && rc.Controller.give_ups > 0);
  let retired, uims = run ~retire:true in
  check_no_recovery retired;
  Alcotest.(check int) "retired: UIMs sent once" new_path_nodes uims

(* A CI-sized soak: every mechanism on, two runs from one seed must be
   byte-identical, and the SLO must hold. *)
let smoke_config =
  {
    Harness.Soak.quick_config with
    Harness.Run.flows = 10;
    updates = 12;
    pacing = Harness.Run.Cycles { cycles = 2; cycle_ms = 3_000.0; tail_ms = 5_000.0 };
    audit =
      Some
        { Harness.Traffic.default_workload with
          tw_mean_gap_ms = 4.0; tw_stop_ms = 1_500.0 };
  }

let run_smoke () =
  Harness.Run.run ~seed:11 smoke_config (Topo.Topologies.b4 ())

let injected (r : Harness.Run.result) = (Option.get r.r_traffic).Harness.Traffic.ts_injected

let test_soak_smoke_green () =
  let r = run_smoke () in
  Alcotest.(check bool) "SLO holds" true (Harness.Run.ok r);
  Alcotest.(check int) "no stuck update" 0 (List.length r.r_stuck);
  Alcotest.(check int) "no leak" 0 (List.length r.r_leaks);
  Alcotest.(check bool) "probes actually flowed" true (injected r > 5_000);
  Alcotest.(check bool) "updates actually pushed" true (r.r_pushed > 0)

let test_soak_smoke_deterministic () =
  let a = run_smoke () and b = run_smoke () in
  Alcotest.(check int) "same event count" a.r_events b.r_events;
  Alcotest.(check int) "same traffic digest"
    (Option.get a.r_traffic).Harness.Traffic.ts_digest
    (Option.get b.r_traffic).Harness.Traffic.ts_digest;
  Alcotest.(check int) "same injected count" (injected a) (injected b)

(* Churn must never re-admit a retired flow id.  Ids are pair hashes
   masked into the flow space, so a fresh pair can carry a retired id;
   admitted at version 1 over the retired flow's higher-version switch
   state, it left an update stuck and probes on mixed paths.  Keying the
   never-reuse set by pair (not id) failed this run. *)
let test_churn_never_reuses_flow_ids () =
  let r =
    Harness.Run.run ~seed:3
      { Harness.Soak.quick_config with churn = Harness.Run.Per_cycle 6 }
      (Topo.Topologies.b4 ())
  in
  Alcotest.(check int) "no stuck update" 0 (List.length r.r_stuck);
  Alcotest.(check int) "no audit violation" 0
    (Harness.Traffic.violations (Option.get r.r_traffic));
  Alcotest.(check bool) "SLO holds" true (Harness.Run.ok r)

let suite =
  [
    Alcotest.test_case "retry exhaustion on a dead-then-restored path" `Quick
      test_retry_exhaustion_dead_then_restored;
    Alcotest.test_case "abort races a late success UFM" `Quick
      test_abort_races_late_success;
    Alcotest.test_case "abort is idempotent and version-checked" `Quick
      test_abort_idempotent;
    Alcotest.test_case "permanent partition ends aborted and reverted" `Quick
      test_permanent_partition_aborts_and_reverts;
    Alcotest.test_case "deadline after success sends no WDM" `Quick
      test_deadline_after_success;
    Alcotest.test_case "superseded backoff timer does nothing" `Quick
      test_superseded_backoff;
    Alcotest.test_case "link restore on an aborted version resends nothing" `Quick
      test_link_restore_after_abort;
    Alcotest.test_case "retire_flow silences pending timers" `Quick
      test_retire_silences_timers;
    Alcotest.test_case "soak smoke meets the SLO" `Quick test_soak_smoke_green;
    Alcotest.test_case "soak smoke is seed-deterministic" `Quick
      test_soak_smoke_deterministic;
    Alcotest.test_case "churn never re-admits a retired flow id" `Quick
      test_churn_never_reuses_flow_ids;
  ]
