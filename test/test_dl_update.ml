(* End-to-end tests for dual-layer updates (Alg. 2, §3.2, §7.2). *)

open P4update

let fig1 () = Topo.Topologies.fig1 ()

let setup () =
  let w = Harness.World.make (fig1 ()) in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  (w, flow)

let path_of_trace w ~flow_id ~src =
  match Harness.Fwdcheck.trace w.Harness.World.net w.Harness.World.switches ~flow_id ~src with
  | Harness.Fwdcheck.Reaches_egress path -> path
  | o -> Alcotest.failf "flow broken: %a" Harness.Fwdcheck.pp_outcome o

let test_segmentation_fig1 () =
  let w, flow = setup () in
  let seg =
    Option.get
      (Controller.prepare w.controller ~flow_id:flow.flow_id
         ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ())
        .Controller.p_segments
  in
  Alcotest.(check (list int)) "gateways" [ 0; 2; 4; 7 ]
    (List.sort compare seg.Segment.gateways);
  Alcotest.(check int) "three segments" 3 (List.length seg.Segment.segments);
  let directions =
    List.map (fun s -> (s.Segment.ingress_gateway, s.Segment.egress_gateway, s.Segment.direction))
      seg.Segment.segments
  in
  Alcotest.(check bool) "fig1 segment structure" true
    (directions
     = [
         (0, 2, Segment.Forward);
         (2, 4, Segment.Backward);
         (4, 7, Segment.Forward);
       ])

let test_dl_converges () =
  let w, flow = setup () in
  let version =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let path = path_of_trace w ~flow_id:flow.flow_id ~src:0 in
  Alcotest.(check (list int)) "converged to new path" Topo.Topologies.fig1_new_path path;
  Alcotest.(check int) "no alarms" 0 (Controller.alarm_count w.controller);
  match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
  | Some _ -> ()
  | None -> Alcotest.fail "no success UFM received"

let test_dl_consistent_throughout () =
  let w, flow = setup () in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  while Dessim.Sim.step w.sim do
    let outcome =
      Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src:0
    in
    if not (Harness.Fwdcheck.is_consistent outcome) then
      Alcotest.failf "inconsistent state mid-update: %a" Harness.Fwdcheck.pp_outcome outcome
  done

let test_dl_labels_inherited () =
  (* After convergence every node of the new path carries the egress' old
     distance label 0 (§3.2 intuition: one segment id remains). *)
  let w, flow = setup () in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  List.iter
    (fun node ->
      let uib = Switch.uib w.switches.(node) in
      Alcotest.(check int)
        (Printf.sprintf "node %d inherited label 0" node)
        0
        (Uib.dist_prev uib flow.flow_id))
    Topo.Topologies.fig1_new_path

let test_dl_inside_nodes_update_early () =
  (* Nodes strictly inside segments must commit before all gateways have
     (the parallelism that motivates DL).  With a large per-rule install
     delay the inside nodes of different segments commit concurrently. *)
  let config = { Netsim.default_config with rule_update_mean_ms = Some 100.0 } in
  let w = Harness.World.make ~config (fig1 ()) in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let commit_times = Hashtbl.create 8 in
  Array.iter
    (fun sw ->
      Switch.on_commit sw (fun ~flow_id:_ ~version:_ ~time ->
          if not (Hashtbl.mem commit_times (Switch.node sw)) then
            Hashtbl.add commit_times (Switch.node sw) time))
    w.switches;
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let time_of node =
    match Hashtbl.find_opt commit_times node with
    | Some t -> t
    | None -> Alcotest.failf "node %d never committed" node
  in
  (* v1 (inside the upstream forward segment) must not wait for the
     backward gateway v2's commit. *)
  Alcotest.(check bool) "v1 commits before gateway v2" true (time_of 1 < time_of 2);
  (* v3 (inside the backward segment) must not wait for v2 either. *)
  Alcotest.(check bool) "v3 commits before gateway v2" true (time_of 3 < time_of 2)

let test_dl_gateway_ordering () =
  (* The backward-segment ingress gateway v2 may only commit after the
     downstream gateway v4 (otherwise a loop would form, §3.2). *)
  let w, flow = setup () in
  let order = ref [] in
  Array.iter
    (fun sw ->
      Switch.on_commit sw (fun ~flow_id:_ ~version:_ ~time:_ ->
          order := Switch.node sw :: !order))
    w.switches;
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let order = List.rev !order in
  let index node =
    let rec find i = function
      | [] -> Alcotest.failf "node %d never committed" node
      | v :: rest -> if v = node then i else find (i + 1) rest
    in
    find 0 order
  in
  Alcotest.(check bool) "v4 before v2" true (index 4 < index 2);
  Alcotest.(check bool) "v2 before v0... (v0 may commit on v2's proposal only afterwards)"
    true
    (index 2 < List.length order)

let test_dl_then_dl_needs_sl () =
  (* Thm. 4 / §7.5: after a DL update the next one must be SL; the policy
     must enforce it. *)
  let w, flow = setup () in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let chosen =
    (Controller.prepare w.controller ~flow_id:flow.flow_id
       ~new_path:Topo.Topologies.fig1_old_path ())
      .Controller.p_type
  in
  Alcotest.(check bool) "policy forces SL after DL" true (chosen = Wire.Sl);
  (* And an SL follow-up indeed converges. *)
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_old_path ~update_type:Wire.Sl ()
  in
  let _ = Harness.World.run w in
  let path = path_of_trace w ~flow_id:flow.flow_id ~src:0 in
  Alcotest.(check (list int)) "SL after DL converges" Topo.Topologies.fig1_old_path path

let test_dl_faster_than_sl_under_stragglers () =
  (* The headline claim behind Fig. 7 single-flow: with straggler nodes
     (Exp(100 ms) rule installs), DL parallelism beats SL. *)
  let run update_type seed =
    let config = { Netsim.default_config with rule_update_mean_ms = Some 100.0 } in
    let w = Harness.World.make ~seed ~config (fig1 ()) in
    let flow =
      Harness.World.install_flow w ~src:0 ~dst:7 ~size:100
        ~path:Topo.Topologies.fig1_old_path
    in
    let version =
      Controller.update_flow w.controller ~flow_id:flow.flow_id
        ~new_path:Topo.Topologies.fig1_new_path ~update_type ()
    in
    let _ = Harness.World.run w in
    match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version with
    | Some t -> t
    | None -> Alcotest.fail "update did not complete"
  in
  let seeds = List.init 10 (fun i -> 42 + i) in
  let sl = Harness.Stats.mean (List.map (run Wire.Sl) seeds) in
  let dl = Harness.Stats.mean (List.map (run Wire.Dl) seeds) in
  Alcotest.(check bool)
    (Printf.sprintf "DL (%.1f ms) beats SL (%.1f ms) with stragglers" dl sl)
    true (dl < sl)

let suite =
  [
    Alcotest.test_case "fig. 1 segmentation" `Quick test_segmentation_fig1;
    Alcotest.test_case "DL update converges to the new path" `Quick test_dl_converges;
    Alcotest.test_case "DL keeps consistency after every event" `Quick
      test_dl_consistent_throughout;
    Alcotest.test_case "DL labels all inherit the egress label" `Quick test_dl_labels_inherited;
    Alcotest.test_case "inside nodes update before backward gateways" `Quick
      test_dl_inside_nodes_update_early;
    Alcotest.test_case "backward gateway waits for downstream" `Quick test_dl_gateway_ordering;
    Alcotest.test_case "policy forces SL after DL (Thm. 4)" `Quick test_dl_then_dl_needs_sl;
    Alcotest.test_case "DL beats SL under stragglers" `Slow
      test_dl_faster_than_sl_under_stragglers;
  ]
