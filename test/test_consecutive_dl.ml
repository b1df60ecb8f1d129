(* Tests for the Appendix C extension: dual-layer updates following
   dual-layer updates without an intervening single-layer round. *)

open P4update

let make_world ?(enable = true) () =
  let w = Harness.World.make (Topo.Topologies.fig1 ()) in
  if enable then begin
    Array.iter Switch.enable_consecutive_dl w.switches;
    Controller.set_allow_consecutive_dl w.controller true
  end;
  let flow =
    Harness.World.install_flow w ~src:0 ~dst:7 ~size:100 ~path:Topo.Topologies.fig1_old_path
  in
  (w, flow)

let trace w flow_id = Harness.Fwdcheck.trace w.Harness.World.net w.Harness.World.switches ~flow_id ~src:0

let test_policy_allows_consecutive_dl () =
  let w, flow = make_world () in
  flow.Controller.last_type <- Wire.Dl;
  let chosen =
    (Controller.prepare w.controller ~flow_id:flow.flow_id
       ~new_path:Topo.Topologies.fig1_old_path
       ~assume_old_path:Topo.Topologies.fig1_new_path ())
      .Controller.p_type
  in
  Alcotest.(check bool) "DL after DL allowed" true (chosen = Wire.Dl)

let test_dl_after_dl_converges () =
  let w, flow = make_world () in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let v3 =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_old_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  (match trace w flow.flow_id with
   | Harness.Fwdcheck.Reaches_egress path ->
     Alcotest.(check (list int)) "second DL converged" Topo.Topologies.fig1_old_path path
   | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o);
  match Controller.completion_time w.controller ~flow_id:flow.flow_id ~version:v3 with
  | Some _ -> ()
  | None -> Alcotest.fail "no completion UFM for the second DL update"

let test_dl_after_dl_consistent_throughout () =
  let w, flow = make_world () in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_old_path ~update_type:Wire.Dl ()
  in
  while Dessim.Sim.step w.sim do
    match trace w flow.flow_id with
    | Harness.Fwdcheck.Reaches_egress _ -> ()
    | o -> Alcotest.failf "inconsistent mid-update: %a" Harness.Fwdcheck.pp_outcome o
  done

let test_without_extension_second_dl_stalls_safely () =
  (* Same scenario with the extension OFF: the second DL must be rejected
     by the gateways (Thm. 4 restriction) without ever breaking the data
     plane — the flow simply stays on the first DL's path. *)
  let w, flow = make_world ~enable:false () in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Dl ()
  in
  let _ = Harness.World.run w in
  let _ =
    Controller.update_flow w.controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig1_old_path ~update_type:Wire.Dl ()
  in
  while Dessim.Sim.step w.sim do
    match trace w flow.flow_id with
    | Harness.Fwdcheck.Reaches_egress _ -> ()
    | o -> Alcotest.failf "inconsistent mid-update: %a" Harness.Fwdcheck.pp_outcome o
  done;
  (* Gateways hold the line; interior (fresh) nodes may have pre-installed,
     but the ingress-to-egress walk still follows the first DL's path. *)
  match trace w flow.flow_id with
  | Harness.Fwdcheck.Reaches_egress path ->
    Alcotest.(check (list int)) "still on the first DL path"
      Topo.Topologies.fig1_new_path path
  | o -> Alcotest.failf "broken: %a" Harness.Fwdcheck.pp_outcome o

(* Property: chains of 2-3 consecutive DL updates under faults preserve
   blackhole/loop/capacity freedom at every event. *)
let scenario_gen =
  QCheck.Gen.(
    let* nodes = int_range 6 12 in
    let* extra = int_range 3 10 in
    let* seed = int_bound 100_000 in
    let* updates = int_range 2 3 in
    let* fault = oneofl [ `None; `Drop; `Delay; `Duplicate ] in
    return (nodes, extra, seed, updates, fault))

let print_scenario (n, e, s, u, f) =
  Printf.sprintf "{n=%d extra=%d seed=%d updates=%d fault=%s}" n e s u
    (match f with `None -> "none" | `Drop -> "drop" | `Delay -> "delay" | `Duplicate -> "dup")

let prop_consecutive_dl_consistent =
  QCheck.Test.make ~name:"consecutive DL chains stay consistent under faults" ~count:80
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun (nodes, extra, seed, updates, fault) ->
      let rng0 = Random.State.make [| seed |] in
      let g = Topo.Graph.create nodes in
      for v = 1 to nodes - 1 do
        let u = Random.State.int rng0 v in
        Topo.Graph.add_edge g ~u ~v ~latency_ms:(1.0 +. Random.State.float rng0 9.0)
          ~capacity:10.0
      done;
      for _ = 1 to extra do
        let u = Random.State.int rng0 nodes and v = Random.State.int rng0 nodes in
        if u <> v && not (Topo.Graph.has_edge g u v) then
          Topo.Graph.add_edge g ~u ~v ~latency_ms:(1.0 +. Random.State.float rng0 9.0)
            ~capacity:10.0
      done;
      let topo =
        { Topo.Topologies.name = "random"; kind = Topo.Topologies.Synthetic; graph = g;
          node_names = Array.init nodes (Printf.sprintf "v%d"); controller = 0 }
      in
      let rng = Random.State.make [| seed + 17 |] in
      let src = Random.State.int rng nodes in
      let dst =
        let d = Random.State.int rng (nodes - 1) in
        if d >= src then d + 1 else d
      in
      match Topo.Graph.k_shortest_paths g ~src ~dst ~k:(updates + 1) with
      | [] | [ _ ] -> true
      | paths ->
        let w = Harness.World.make ~seed topo in
        Controller.set_auto_route w.controller false;
        Array.iter Switch.enable_consecutive_dl w.switches;
        Controller.set_allow_consecutive_dl w.controller true;
        let faulted = ref 0 in
        (match fault with
         | `None -> ()
         | f ->
           Netsim.set_data_fault w.net (fun ~from:_ ~to_:_ _ ->
               if !faulted < 3 && Random.State.int (Dessim.Sim.rng w.sim) 4 = 0 then begin
                 incr faulted;
                 match f with
                 | `Drop -> Netsim.Drop
                 | `Delay -> Netsim.Delay 25.0
                 | `Duplicate -> Netsim.Duplicate
                 | `None -> Netsim.Deliver
               end
               else Netsim.Deliver));
        let flow = Harness.World.install_flow w ~src ~dst ~size:100 ~path:(List.hd paths) in
        (* Space the pushes a few milliseconds apart: racing versions with
           partially-propagated predecessors are the adversarial case. *)
        List.iteri
          (fun i new_path ->
            if i >= 1 && i <= updates then
              Dessim.Sim.schedule w.sim ~delay:(float_of_int (i - 1) *. 5.0) (fun () ->
                  ignore
                    (Controller.update_flow w.controller ~flow_id:flow.flow_id ~new_path
                       ~update_type:Wire.Dl ())))
          paths;
        let ok = ref true in
        while Dessim.Sim.step w.sim && !ok do
          (match Harness.Fwdcheck.trace w.net w.switches ~flow_id:flow.flow_id ~src with
           | Harness.Fwdcheck.Reaches_egress _ -> ()
           | _ -> ok := false);
          if Harness.Fwdcheck.link_violations w.net w.switches <> [] then ok := false
        done;
        if not !ok then
          QCheck.Test.fail_reportf "consistency violated in %s"
            (print_scenario (nodes, extra, seed, updates, fault));
        true)

let suite =
  [
    Alcotest.test_case "policy allows DL after DL" `Quick test_policy_allows_consecutive_dl;
    Alcotest.test_case "DL after DL converges" `Quick test_dl_after_dl_converges;
    Alcotest.test_case "DL after DL consistent throughout" `Quick
      test_dl_after_dl_consistent_throughout;
    Alcotest.test_case "without extension: second DL stalls safely" `Quick
      test_without_extension_second_dl_stalls_safely;
    QCheck_alcotest.to_alcotest ~long:true prop_consecutive_dl_consistent;
  ]
