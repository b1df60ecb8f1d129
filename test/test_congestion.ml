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

(* The check a switch with its priority gate (the default) makes. *)
let gated = Congestion.check ~priority_gate:true

let test_move_within_capacity () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:400;
  check_verdict "fits" Congestion.Proceed
    (gated uib ~flow_id:1 ~new_port:1 ~size:400 ~high_priority:false
       ~other_high_waiters:0)

let test_move_blocked_by_capacity () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:400;
  install uib ~flow_id:2 ~port:1 ~size:700;
  check_verdict "does not fit" Congestion.Defer_capacity
    (gated uib ~flow_id:1 ~new_port:1 ~size:400 ~high_priority:false
       ~other_high_waiters:0)

let test_same_port_always_allowed () =
  (* §A.2: capacity is already allocated when the parent stays the same. *)
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:900;
  Uib.reserve uib 0 100 (* port full *);
  check_verdict "same port" Congestion.Proceed
    (gated uib ~flow_id:1 ~new_port:0 ~size:900 ~high_priority:false
       ~other_high_waiters:0)

let test_local_port_always_allowed () =
  let uib = make_uib () in
  check_verdict "egress" Congestion.Proceed
    (gated uib ~flow_id:1 ~new_port:Wire.port_local ~size:9999
       ~high_priority:false ~other_high_waiters:0)

let test_priority_gate () =
  let uib = make_uib () in
  install uib ~flow_id:1 ~port:0 ~size:100;
  (* capacity would fit, but a promoted flow is queued for port 1 *)
  check_verdict "low priority yields" Congestion.Defer_priority
    (gated uib ~flow_id:1 ~new_port:1 ~size:100 ~high_priority:false
       ~other_high_waiters:1);
  check_verdict "high priority proceeds" Congestion.Proceed
    (gated uib ~flow_id:1 ~new_port:1 ~size:100 ~high_priority:true
       ~other_high_waiters:1);
  check_verdict "without the gate, capacity alone decides" Congestion.Proceed
    (Congestion.check uib ~priority_gate:false ~flow_id:1 ~new_port:1 ~size:100
       ~high_priority:false ~other_high_waiters:1)

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

(* §7.4's priority gate is switch state, not process state.  At node 0
   (S) of a five-way fan (S - M1..M5 - D, 1000 units per S-Mi link),
   flow 1 (600) waits for flow 4 (600) to leave M2, flow 2 (600) waits
   for flow 1 to leave M1, which promotes flow 1, and flow 3 (100) fits
   on M2 beside flow 4: with the gate it yields to the promoted flow 1
   until flow 4 moves away at t = 100 ms, without it it moves at once. *)
let gate_world ?disable () =
  let g = Topo.Graph.create 7 in
  for m = 1 to 5 do
    Topo.Graph.add_edge g ~u:0 ~v:m ~latency_ms:1.0 ~capacity:10.0;
    Topo.Graph.add_edge g ~u:m ~v:6 ~latency_ms:1.0 ~capacity:100.0
  done;
  let topo =
    { Topo.Topologies.name = "fan"; kind = Topo.Topologies.Synthetic; graph = g;
      node_names = Array.init 7 string_of_int; controller = 0 }
  in
  let w = Harness.World.make topo in
  Option.iter
    (fun guard -> Array.iter (fun sw -> Switch.disable_guard sw guard) w.switches)
    disable;
  let versions =
    List.map
      (fun (flow_id, size, old_m, new_m, at) ->
        ignore
          (Harness.World.install_flow w ~flow_id ~src:0 ~dst:6 ~size ~path:[ 0; old_m; 6 ]);
        let version = ref 0 in
        Dessim.Sim.schedule_at w.sim ~time:at (fun () ->
            version :=
              Controller.update_flow w.controller ~flow_id ~new_path:[ 0; new_m; 6 ] ());
        (flow_id, version))
      [ (1, 600, 1, 2, 0.0); (2, 600, 3, 1, 0.0); (3, 100, 4, 2, 10.0);
        (4, 600, 2, 5, 100.0) ]
  in
  let completions () =
    List.map
      (fun (flow_id, version) ->
        Option.get (Controller.completion_time w.controller ~flow_id ~version:!version))
      versions
  in
  (w, completions)

let test_priority_gate_per_switch () =
  let solo ?disable () =
    let w, completions = gate_world ?disable () in
    ignore (Harness.World.run w);
    completions ()
  in
  let gated = solo () and ungated = solo ~disable:Switch.Priority_gate () in
  Alcotest.(check bool) "without the gate, flow 3 moves before flow 4 leaves" true
    (List.nth ungated 2 < 100.0 && List.nth gated 2 > 100.0);
  (* Side by side: one event of each world in turn. *)
  let off, off_completions = gate_world ~disable:Switch.Priority_gate () in
  let on, on_completions = gate_world () in
  let rec interleave () =
    let a = Dessim.Sim.step off.sim in
    let b = Dessim.Sim.step on.sim in
    if a || b then interleave ()
  in
  interleave ();
  Alcotest.(check (list (float 0.0))) "default world = solo run" gated (on_completions ());
  Alcotest.(check (list (float 0.0))) "gate-off world = its solo run" ungated
    (off_completions ())

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
    Alcotest.test_case "priority gate is per switch" `Quick test_priority_gate_per_switch;
  ]
