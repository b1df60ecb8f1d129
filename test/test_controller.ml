(* Unit tests for the control-plane component: Flow DB, preparation
   contents, the §7.5 SL/DL policy, and UFM bookkeeping. *)

open P4update

let make () =
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  (w, w.controller)

let test_flow_db () =
  let _, ctl = make () in
  let flow =
    Controller.register_flow ctl ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  Alcotest.(check bool) "flow id in register range" true
    (flow.Controller.flow_id >= 0 && flow.Controller.flow_id < Wire.flow_space);
  (match Controller.find_flow ctl ~flow_id:flow.Controller.flow_id with
   | Some found -> Alcotest.(check int) "same src" 0 found.Controller.src
   | None -> Alcotest.fail "flow not found");
  Alcotest.(check int) "one flow listed" 1 (List.length (Controller.flows ctl))

let test_prepare_contents () =
  let w, ctl = make () in
  ignore w;
  let flow =
    Controller.register_flow ctl ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let prepared =
    Controller.prepare ctl ~flow_id:flow.Controller.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  Alcotest.(check int) "version 2" 2 prepared.Controller.p_version;
  Alcotest.(check int) "one UIM per node" 8 (List.length prepared.Controller.p_uims);
  Alcotest.(check bool) "segments attached for DL" true
    (prepared.Controller.p_segments <> None);
  (* UIM of the egress carries distance 0 and the egress roles. *)
  let _, egress_uim = List.find (fun (node, _) -> node = 7) prepared.Controller.p_uims in
  Alcotest.(check int) "egress distance" 0 egress_uim.Wire.dist_new;
  Alcotest.(check bool) "egress role" true
    (egress_uim.Wire.role land Wire.role_flow_egress <> 0);
  Alcotest.(check int) "egress forwards locally" Wire.port_local egress_uim.Wire.egress_port;
  (* prepare must not mutate the flow DB; push does. *)
  Alcotest.(check int) "version unchanged before push" 1 flow.Controller.version;
  Controller.push ctl prepared;
  Alcotest.(check int) "version advanced by push" 2 flow.Controller.version;
  Alcotest.(check bool) "path advanced by push" true
    (flow.Controller.path = Topo.Topologies.fig1_new_path)

let test_prepare_unknown_flow () =
  let _, ctl = make () in
  Alcotest.check_raises "unknown flow"
    (Invalid_argument "Controller.prepare: unknown flow 42") (fun () ->
      ignore (Controller.prepare ctl ~flow_id:42 ~new_path:[ 0; 1 ] ()))

(* §7.5: SL for small all-forward updates, DL otherwise.  [choose] is
   the type [prepare] picks for a flow on [old_path] whose last update
   had [last_type]. *)
let choose ctl ?(last_type = Wire.Sl) ~old_path ~new_path () =
  let flow =
    Controller.register_flow ctl ~flow_id:1 ~src:(List.hd old_path)
      ~dst:(List.nth old_path (List.length old_path - 1))
      ~size:100 ~path:old_path
  in
  flow.Controller.last_type <- last_type;
  (Controller.prepare ctl ~flow_id:1 ~new_path ()).Controller.p_type

let test_policy_boundaries () =
  let _, ctl = make () in
  (* Small forward detour: v0,v4,v2,v7 -> v0,v1,v2,v7 changes two rules. *)
  Alcotest.(check bool) "small forward detour -> SL" true
    (choose ctl ~old_path:[ 0; 4; 2; 7 ] ~new_path:[ 0; 1; 2; 7 ] () = Wire.Sl);
  (* The Fig. 1 update has a backward segment -> DL. *)
  Alcotest.(check bool) "backward segment -> DL" true
    (choose ctl ~old_path:Topo.Topologies.fig1_old_path
       ~new_path:Topo.Topologies.fig1_new_path ()
     = Wire.Dl);
  (* After a DL update the policy must fall back to SL (Thm. 4). *)
  Alcotest.(check bool) "forced SL after DL" true
    (choose ctl ~last_type:Wire.Dl ~old_path:Topo.Topologies.fig1_new_path
       ~new_path:Topo.Topologies.fig1_old_path ()
     = Wire.Sl)

let test_policy_threshold () =
  (* All-forward updates with more than [sl_threshold] fresh rules take
     the dual layer.  fig1's 0,4,2,7 -> 0,1,...,7 rewrites 7 rules but
     also contains a backward segment, so the detour is a chain 0..9
     closed by a direct 0-9 link. *)
  let g = Topo.Graph.create 10 in
  for v = 1 to 9 do
    Topo.Graph.add_edge g ~u:(v - 1) ~v ~latency_ms:1.0 ~capacity:10.0
  done;
  Topo.Graph.add_edge g ~u:0 ~v:9 ~latency_ms:1.0 ~capacity:10.0;
  let topo =
    {
      Topo.Topologies.name = "chain";
      kind = Topo.Topologies.Synthetic;
      graph = g;
      node_names = Array.init 10 string_of_int;
      controller = 0;
    }
  in
  let ctl = (Harness.World.make topo).Harness.World.controller in
  (* old: the direct 0-9 link; new: the 9-hop chain — one long forward
     segment with 8 interior nodes > threshold. *)
  let old_path = [ 0; 9 ] in
  let new_path = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  Alcotest.(check bool) "long forward detour -> DL" true
    (choose ctl ~old_path ~new_path () = Wire.Dl);
  (* A node of the old path that changes its successor also counts: on a
     13-node chain with chords (2i, 2i+2), taking five chords rewrites 5
     rules and six rewrite 6, with every new node on the old path. *)
  let g = Topo.Graph.create 13 in
  for v = 1 to 12 do
    Topo.Graph.add_edge g ~u:(v - 1) ~v ~latency_ms:1.0 ~capacity:10.0
  done;
  for i = 0 to 5 do
    Topo.Graph.add_edge g ~u:(2 * i) ~v:((2 * i) + 2) ~latency_ms:1.0 ~capacity:10.0
  done;
  let chords = { topo with graph = g; node_names = Array.init 13 string_of_int } in
  let ctl = (Harness.World.make chords).Harness.World.controller in
  let old_path = List.init 13 Fun.id in
  Alcotest.(check bool) "five rerouted old-path nodes -> SL" true
    (choose ctl ~old_path ~new_path:[ 0; 2; 4; 6; 8; 10; 11; 12 ] () = Wire.Sl);
  Alcotest.(check bool) "six rerouted old-path nodes -> DL" true
    (choose ctl ~old_path ~new_path:[ 0; 2; 4; 6; 8; 10; 12 ] () = Wire.Dl)

let test_reports_and_alarms () =
  let w, ctl = make () in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let seen = ref [] in
  Controller.on_report ctl (fun r -> seen := r :: !seen);
  let version =
    Controller.update_flow ctl ~flow_id:flow.Controller.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ()
  in
  let _ = Harness.World.run w in
  Alcotest.(check bool) "hook fired" true (!seen <> []);
  let success = List.find (fun r -> r.Controller.r_status = Wire.ufm_success) !seen in
  Alcotest.(check int) "success for the pushed version" version success.Controller.r_version;
  Alcotest.(check int) "reported by the ingress" 0 success.Controller.r_node;
  Alcotest.(check int) "no alarms on a clean run" 0 (Controller.alarm_count ctl)

(* Completions live in the flow's Flow DB entry: retiring the flow
   drops them, and a flow registered again under the same id starts
   with none (a retired flow's version 2 is not the new flow's). *)
let test_retire_drops_completions () =
  let w, ctl = make () in
  let install () =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let flow_id = (install ()).Controller.flow_id in
  let version =
    Controller.update_flow ctl ~flow_id ~new_path:Topo.Topologies.fig1_new_path ()
  in
  ignore (Harness.World.run w);
  Alcotest.(check bool) "completed while registered" true
    (Controller.completion_time ctl ~flow_id ~version <> None);
  Controller.retire_flow ctl ~flow_id;
  Alcotest.(check (option (float 0.0))) "dropped on retirement" None
    (Controller.completion_time ctl ~flow_id ~version);
  ignore (install ());
  Alcotest.(check (option (float 0.0))) "none for the re-registered flow" None
    (Controller.completion_time ctl ~flow_id ~version)

let suite =
  [
    Alcotest.test_case "flow DB" `Quick test_flow_db;
    Alcotest.test_case "retiring a flow drops its completions" `Quick
      test_retire_drops_completions;
    Alcotest.test_case "prepare contents" `Quick test_prepare_contents;
    Alcotest.test_case "prepare unknown flow" `Quick test_prepare_unknown_flow;
    Alcotest.test_case "policy boundaries (SS7.5)" `Quick test_policy_boundaries;
    Alcotest.test_case "policy threshold" `Quick test_policy_threshold;
    Alcotest.test_case "reports and alarms" `Quick test_reports_and_alarms;
  ]
