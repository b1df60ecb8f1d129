(* Unit and integration tests for the congestion scheduler (§7.4, §A.2). *)

open P4update

let make_uib () =
  let uib = Uib.create ~ports:4 in
  Uib.set_port_capacity uib 0 1000;
  Uib.set_port_capacity uib 1 1000;
  uib

let install uib ~flow_id ~port ~size =
  Uib.set_ver_cur uib flow_id 1;
  Uib.set_egress_port uib flow_id port;
  Uib.set_flow_size uib flow_id size;
  Uib.reserve uib port size

let check_verdict name expected actual =
  let show = function
    | Congestion.Proceed -> "proceed"
    | Congestion.Defer_capacity -> "defer-capacity"
    | Congestion.Defer_priority -> "defer-priority"
  in
  Alcotest.(check string) name (show expected) (show actual)

let test_move_within_capacity () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:400;
  check_verdict "fits" Congestion.Proceed
    (Congestion.check uib ~flow_id:1 ~new_port:1 ~size:400 ~high_priority:false
       ~other_high_waiters:0)

let test_move_blocked_by_capacity () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:400;
  install uib ~flow_id:2 ~port:1 ~size:700;
  check_verdict "does not fit" Congestion.Defer_capacity
    (Congestion.check uib ~flow_id:1 ~new_port:1 ~size:400 ~high_priority:false
       ~other_high_waiters:0)

let test_same_port_always_allowed () =
  (* §A.2: capacity is already allocated when the parent stays the same. *)
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:900;
  Uib.reserve uib 0 100 (* port full *);
  check_verdict "same port" Congestion.Proceed
    (Congestion.check uib ~flow_id:1 ~new_port:0 ~size:900 ~high_priority:false
       ~other_high_waiters:0)

let test_local_port_always_allowed () =
  let uib = make_uib () in
  check_verdict "egress" Congestion.Proceed
    (Congestion.check uib ~flow_id:1 ~new_port:Wire.port_local ~size:9999
       ~high_priority:false ~other_high_waiters:0)

let test_priority_gate () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:100;
  (* capacity would fit, but a promoted flow is queued for port 1 *)
  check_verdict "low priority yields" Congestion.Defer_priority
    (Congestion.check uib ~flow_id:1 ~new_port:1 ~size:100 ~high_priority:false
       ~other_high_waiters:1);
  check_verdict "high priority proceeds" Congestion.Proceed
    (Congestion.check uib ~flow_id:1 ~new_port:1 ~size:100 ~high_priority:true
       ~other_high_waiters:1)

let test_promotion () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:100;
  Alcotest.(check bool) "not promoted" false (Congestion.is_promoted uib ~flow_id:1);
  (* someone starts waiting to enter port 0: flow 1 occupies it, promote *)
  Congestion.note_contention uib ~port:0;
  Alcotest.(check bool) "promoted" true (Congestion.is_promoted uib ~flow_id:1);
  Congestion.clear_contention uib ~port:0;
  Alcotest.(check bool) "demoted" false (Congestion.is_promoted uib ~flow_id:1)

let test_apply_move_transfers_reservation () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:400;
  Congestion.apply_move uib ~old_port:0 ~new_port:1 ~old_size:400 ~new_size:400;
  Alcotest.(check int) "old freed" 0 (Uib.reserved uib 0);
  Alcotest.(check int) "new reserved" 400 (Uib.reserved uib 1)

(* Integration: two flows must swap links; the scheduler orders them so
   capacity is never violated and both eventually move. *)
let test_dependent_flows_eventually_move () =
  (* Line 0 - 1 - 2 with a parallel 0 - 3 - 2 branch; tight capacities. *)
  let g = Topo.Graph.create 4 in
  Topo.Graph.add_edge g ~u:0 ~v:1 ~latency_ms:1.0 ~capacity:6.0;
  Topo.Graph.add_edge g ~u:1 ~v:2 ~latency_ms:1.0 ~capacity:6.0;
  Topo.Graph.add_edge g ~u:0 ~v:3 ~latency_ms:1.0 ~capacity:6.0;
  Topo.Graph.add_edge g ~u:3 ~v:2 ~latency_ms:1.0 ~capacity:6.0;
  let topo =
    {
      Topo.Topologies.name = "swap";
      kind = Topo.Topologies.Synthetic;
      graph = g;
      node_names = [| "a"; "b"; "c"; "d" |];
      controller = 0;
    }
  in
  let w = Harness.World.make topo in
  (* flow A (400) on 0-1-2, flow B (400) on 0-3-2; each link holds 600:
     A and B want to trade places, so each must wait for the other's
     departure on a per-node basis. *)
  let fa = Harness.World.install_flow w ~src:0 ~dst:2 ~size:400 ~path:[ 0; 1; 2 ] in
  let fb_dst = 0 in
  ignore fb_dst;
  let fb = Harness.World.install_flow w ~src:2 ~dst:0 ~size:400 ~path:[ 2; 3; 0 ] in
  let va = Controller.update_flow w.controller ~flow_id:fa.flow_id ~new_path:[ 0; 3; 2 ] () in
  let vb = Controller.update_flow w.controller ~flow_id:fb.flow_id ~new_path:[ 2; 1; 0 ] () in
  while Dessim.Sim.step w.sim do
    match Harness.Fwdcheck.link_violations w.net w.switches with
    | [] -> ()
    | _ -> Alcotest.fail "capacity violated during the swap"
  done;
  Alcotest.(check bool) "flow A completed" true
    (Controller.completion_time w.controller ~flow_id:fa.flow_id ~version:va <> None);
  Alcotest.(check bool) "flow B completed" true
    (Controller.completion_time w.controller ~flow_id:fb.flow_id ~version:vb <> None)

let suite =
  [
    Alcotest.test_case "move within capacity" `Quick test_move_within_capacity;
    Alcotest.test_case "move blocked by capacity" `Quick test_move_blocked_by_capacity;
    Alcotest.test_case "same port always allowed" `Quick test_same_port_always_allowed;
    Alcotest.test_case "local port always allowed" `Quick test_local_port_always_allowed;
    Alcotest.test_case "priority gate" `Quick test_priority_gate;
    Alcotest.test_case "dynamic promotion" `Quick test_promotion;
    Alcotest.test_case "apply_move transfers reservation" `Quick
      test_apply_move_transfers_reservation;
    Alcotest.test_case "dependent flows eventually move" `Quick
      test_dependent_flows_eventually_move;
  ]
