(* Property tests for the paper's consistency theorems (Thm. 1-4,
   Cor. 1-4): random topologies, random updates, random faults — the
   forwarding state must stay blackhole- and loop-free after every single
   simulation event, no link may exceed its capacity, and consistent
   updates must converge to the highest version. *)

open P4update

(* Random connected topology with uniform latencies. *)
let build_topology ~n ~extra ~seed =
  let rng = Random.State.make [| seed |] in
  let g = Topo.Graph.create n in
  for v = 1 to n - 1 do
    let u = Random.State.int rng v in
    Topo.Graph.add_edge g ~u ~v ~latency_ms:(1.0 +. Random.State.float rng 9.0) ~capacity:10.0
  done;
  for _ = 1 to extra do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Topo.Graph.has_edge g u v) then
      Topo.Graph.add_edge g ~u ~v ~latency_ms:(1.0 +. Random.State.float rng 9.0)
        ~capacity:10.0
  done;
  {
    Topo.Topologies.name = "random";
    kind = Topo.Topologies.Synthetic;
    graph = g;
    node_names = Array.init n (Printf.sprintf "v%d");
    controller = 0;
  }

(* One scenario: a random flow, a chain of random updates, optional data
   plane faults; checked after every event. *)
type scenario = {
  sc_nodes : int;
  sc_extra : int;
  sc_seed : int;
  sc_updates : int;
  sc_update_type : Wire.update_type option; (* None = policy *)
  sc_fault : [ `None | `Drop | `Corrupt | `Duplicate | `Delay ];
}

let scenario_gen =
  QCheck.Gen.(
    let* sc_nodes = int_range 5 12 in
    let* sc_extra = int_range 2 10 in
    let* sc_seed = int_bound 100_000 in
    let* sc_updates = int_range 1 3 in
    let* sc_update_type = oneofl [ None; Some Wire.Sl; Some Wire.Dl ] in
    let* sc_fault = oneofl [ `None; `Drop; `Corrupt; `Duplicate; `Delay ] in
    return { sc_nodes; sc_extra; sc_seed; sc_updates; sc_update_type; sc_fault })

let scenario_print sc =
  Printf.sprintf "{n=%d extra=%d seed=%d updates=%d type=%s fault=%s}" sc.sc_nodes sc.sc_extra
    sc.sc_seed sc.sc_updates
    (match sc.sc_update_type with
     | None -> "policy"
     | Some Wire.Sl -> "SL"
     | Some Wire.Dl -> "DL")
    (match sc.sc_fault with
     | `None -> "none"
     | `Drop -> "drop"
     | `Corrupt -> "corrupt"
     | `Duplicate -> "duplicate"
     | `Delay -> "delay")

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

(* Pick [count] distinct-ish paths between a random pair. *)
let pick_paths rng graph ~count =
  let n = Topo.Graph.node_count graph in
  let src = Random.State.int rng n in
  let dst =
    let d = Random.State.int rng (n - 1) in
    if d >= src then d + 1 else d
  in
  match Topo.Graph.k_shortest_paths graph ~src ~dst ~k:(count + 1) with
  | [] -> None
  | paths -> Some (src, dst, paths)

exception Violation of string

let run_scenario ?(check_each_event = true) sc =
  let topo = build_topology ~n:sc.sc_nodes ~extra:sc.sc_extra ~seed:sc.sc_seed in
  let rng = Random.State.make [| sc.sc_seed + 17 |] in
  match pick_paths rng topo.Topo.Topologies.graph ~count:(sc.sc_updates + 1) with
  | None -> true
  | Some (src, dst, paths) ->
    let w = Harness.World.make ~seed:sc.sc_seed topo in
    (* A corrupted packet can masquerade as an FRM; auto-routing the junk
       flow is safe but makes the walk assertions noisy, so turn it off. *)
    P4update.Controller.set_auto_route w.controller false;
    (* Data-plane faults: applied with probability 1/4 per control packet,
       never twice for the same bytes (so waves cannot vanish entirely in
       the drop case — the paper's §11 retransmission is out of scope). *)
    let faulted = ref 0 in
    (match sc.sc_fault with
     | `None -> ()
     | fault ->
       Netsim.set_data_fault w.net (fun ~from:_ ~to_:_ _bytes ->
           if !faulted < 3 && Random.State.int (Dessim.Sim.rng w.sim) 4 = 0 then begin
             incr faulted;
             match fault with
             | `Drop -> Netsim.Drop
             | `Corrupt -> Netsim.Corrupt
             | `Duplicate -> Netsim.Duplicate
             | `Delay -> Netsim.Delay 25.0
             | `None -> Netsim.Deliver
           end
           else Netsim.Deliver));
    let initial = List.hd paths in
    let flow = Harness.World.install_flow w ~src ~dst ~size:100 ~path:initial in
    let updates = List.filteri (fun i _ -> i >= 1 && i <= sc.sc_updates) paths in
    (* Spaced pushes: racing versions with partially-propagated
       predecessors exercise the adversarial interleavings. *)
    List.iteri
      (fun i new_path ->
        Dessim.Sim.schedule w.sim ~delay:(float_of_int i *. 5.0) (fun () ->
            ignore
              (Controller.update_flow w.controller ~flow_id:flow.flow_id ~new_path
                 ?update_type:sc.sc_update_type ())))
      updates;
    let check () =
      let outcome = Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src in
      (match outcome with
       | Harness.Fwdcheck.Loop cycle ->
         raise
           (Violation
              (Printf.sprintf "loop [%s]" (String.concat ";" (List.map string_of_int cycle))))
       | Harness.Fwdcheck.Blackhole node ->
         raise (Violation (Printf.sprintf "blackhole at %d" node))
       | Harness.Fwdcheck.Reaches_egress _ -> ());
      match Harness.Fwdcheck.link_violations w.net w.switches with
      | [] -> ()
      | (node, port, reserved, cap) :: _ ->
        raise
          (Violation
             (Printf.sprintf "capacity violated at node %d port %d (%d > %d)" node port
                reserved cap))
    in
    let budget = ref 2_000_000 in
    (try
       while Dessim.Sim.step w.sim && !budget > 0 do
         decr budget;
         if check_each_event then check ()
       done;
       check ()
     with Violation msg -> QCheck.Test.fail_reportf "%s in %s" msg (scenario_print sc));
    true

let prop_consistency_under_faults =
  QCheck.Test.make ~name:"blackhole/loop/capacity freedom after every event (Thm. 1/3, Cor.)"
    ~count:120 scenario_arb run_scenario

(* Without faults and with a consistent controller, the flow must converge
   to the last pushed path (Thm. 2/4). *)
let prop_convergence =
  QCheck.Test.make ~name:"convergence to the highest consistent version (Thm. 2/4)" ~count:120
    (QCheck.make ~print:scenario_print
       QCheck.Gen.(map (fun sc -> { sc with sc_fault = `None; sc_update_type = None }) scenario_gen))
    (fun sc ->
      let topo = build_topology ~n:sc.sc_nodes ~extra:sc.sc_extra ~seed:sc.sc_seed in
      let rng = Random.State.make [| sc.sc_seed + 17 |] in
      match pick_paths rng topo.Topo.Topologies.graph ~count:(sc.sc_updates + 1) with
      | None -> true
      | Some (src, _dst, paths) ->
        let w = Harness.World.make ~seed:sc.sc_seed topo in
        let initial = List.hd paths in
        let flow = Harness.World.install_flow w ~src ~dst:0 ~size:100 ~path:initial in
        let updates = List.filteri (fun i _ -> i >= 1 && i <= sc.sc_updates) paths in
        if updates = [] then true
        else begin
        let last = List.nth updates (List.length updates - 1) in
        List.iter
          (fun new_path ->
            ignore (Controller.update_flow w.controller ~flow_id:flow.flow_id ~new_path ()))
          updates;
        let _ = Harness.World.run w in
        (match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src with
         | Harness.Fwdcheck.Reaches_egress path ->
           if path <> last then
             QCheck.Test.fail_reportf "converged to [%s], expected [%s] in %s"
               (String.concat ";" (List.map string_of_int path))
               (String.concat ";" (List.map string_of_int last))
               (scenario_print sc)
         | outcome ->
           QCheck.Test.fail_reportf "broken: %s in %s"
             (Format.asprintf "%a" Harness.Fwdcheck.pp_outcome outcome)
             (scenario_print sc));
        true
        end)

(* Version monotonicity observed at runtime on every switch (Obs. 1). *)
let prop_runtime_version_monotonicity =
  QCheck.Test.make ~name:"runtime versions only increase (Obs. 1)" ~count:80
    (QCheck.make ~print:scenario_print
       QCheck.Gen.(map (fun sc -> { sc with sc_fault = `None }) scenario_gen))
    (fun sc ->
      let topo = build_topology ~n:sc.sc_nodes ~extra:sc.sc_extra ~seed:sc.sc_seed in
      let rng = Random.State.make [| sc.sc_seed + 17 |] in
      match pick_paths rng topo.Topo.Topologies.graph ~count:(sc.sc_updates + 1) with
      | None -> true
      | Some (src, dst, paths) ->
        let w = Harness.World.make ~seed:sc.sc_seed topo in
        let flow = Harness.World.install_flow w ~src ~dst ~size:100 ~path:(List.hd paths) in
        (* The shared probes flag any non-monotone commit per (switch,
           flow); no faults here, so those are the only violations
           possible. *)
        let monitor = Harness.Invariants.create w in
        List.iter
          (fun new_path ->
            ignore
              (Controller.update_flow w.controller ~flow_id:flow.flow_id ~new_path
                 ?update_type:sc.sc_update_type ()))
          (List.filteri (fun i _ -> i >= 1 && i <= sc.sc_updates) paths);
        let _ = Harness.World.run w in
        match Harness.Invariants.violations monitor with
        | [] -> true
        | v :: _ ->
          QCheck.Test.fail_reportf "%s in %s"
            (Harness.Invariants.violation_to_string v)
            (scenario_print sc))

(* The monotone-commit probe in isolation.  [force_commit] makes [node]
   commit [version] of [flow_id] as a flow egress would; a silent
   register wipe first lets it commit a version at or below its last
   one, which the probe must flag.  A node that went down and came back
   starts a fresh history, and only its own. *)
let test_monotone_commit_probe () =
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  let flow_id = flow.Controller.flow_id in
  let monitor = Harness.Invariants.create w in
  let version =
    Controller.update_flow w.controller ~flow_id ~new_path:Topo.Topologies.fig1_new_path
      ~update_type:Wire.Sl ()
  in
  ignore (Harness.World.run w);
  let violations () = List.length (Harness.Invariants.violations monitor) in
  Alcotest.(check int) "the update commits monotonically" 0 (violations ());
  let force_commit node ~version =
    let commits = (Switch.stats w.switches.(node)).Switch.commits in
    Netsim.controller_transmit w.net ~to_:node
      (Wire.control_to_bytes
         {
           (Wire.control_default Wire.Uim) with
           flow_id;
           version_new = version;
           egress_port = Wire.port_local;
           role = Wire.role_flow_egress;
         });
    ignore (Harness.World.run w);
    Alcotest.(check int)
      (Printf.sprintf "node %d committed v%d" node version)
      (commits + 1) (Switch.stats w.switches.(node)).Switch.commits
  in
  (* node 3 restarts: its next commit of version 1 is its first *)
  let now = Dessim.Sim.now w.sim in
  Netsim.fail_node w.net ~node:3 ~at:(now +. 1.0);
  Netsim.restore_node w.net ~node:3 ~at:(now +. 2.0);
  ignore (Harness.World.run w);
  force_commit 3 ~version:1;
  Alcotest.(check int) "a restarted node's first commit is not flagged" 0 (violations ());
  (* node 5 never restarted: after a silent wipe, version 1 follows [version] *)
  Uib.reset (Switch.uib w.switches.(5));
  force_commit 5 ~version:1;
  match Harness.Invariants.violations monitor with
  | [ v ] ->
    Alcotest.(check string) "the lower-version commit is flagged"
      (Printf.sprintf "non-monotone commit at node 5: 1 after %d" version)
      v.Harness.Invariants.v_what
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:true prop_consistency_under_faults;
    QCheck_alcotest.to_alcotest ~long:true prop_convergence;
    QCheck_alcotest.to_alcotest ~long:true prop_runtime_version_monotonicity;
    Alcotest.test_case "monotone-commit probe" `Quick test_monotone_commit_probe;
  ]
