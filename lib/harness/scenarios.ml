module Sim = Dessim.Sim

type system = P4u | Ez | Central

let system_name = function P4u -> "P4Update" | Ez -> "ez-Segway" | Central -> "Central"
let all_systems = [ P4u; Ez; Central ]
let runs = 30

type setup = {
  topo : unit -> Topo.Topologies.t;
  stragglers : bool;
  congestion : bool;
  headroom : float;
  control : Netsim.control_latency option;
}

let config_of setup =
  {
    Netsim.default_config with
    rule_update_mean_ms = (if setup.stragglers then Some 100.0 else None);
    control_latency =
      Option.value setup.control ~default:Netsim.default_config.Netsim.control_latency;
  }

let fail_incomplete system = failwith (system_name system ^ ": update did not complete")

(* ------------------------------------------------------------------ *)
(* Single flow                                                          *)
(* ------------------------------------------------------------------ *)

let single_flow_time ?update_type setup system ~old_path ~new_path ~seed =
  let topo = setup.topo () in
  let sim = Sim.create ~seed () in
  Obs.Trace.set_clock (fun () -> Sim.now sim);
  let net = Netsim.create ~config:(config_of setup) sim topo in
  let src = List.hd old_path and dst = List.nth old_path (List.length old_path - 1) in
  match system with
  | P4u ->
    let switches =
      Array.init (Topo.Graph.node_count topo.Topo.Topologies.graph) (fun node ->
          P4update.Switch.create net ~node)
    in
    let controller = P4update.Controller.create net in
    let flow = P4update.Controller.register_flow controller ~src ~dst ~size:100 ~path:old_path in
    List.iter
      (fun (l : P4update.Label.node_label) ->
        P4update.Switch.install_initial switches.(l.node) ~flow_id:flow.flow_id ~version:1
          ~dist:l.dist_new ~egress_port:l.egress_port ~notify_port:l.notify_port ~size:100)
      (P4update.Label.of_path net old_path);
    let start = Sim.now sim in
    let version =
      P4update.Controller.update_flow controller ~flow_id:flow.flow_id ~new_path ?update_type ()
    in
    let _ = Sim.run ~until:120_000.0 sim in
    (match P4update.Controller.completion_time controller ~flow_id:flow.flow_id ~version with
     | Some t -> t -. start
     | None -> fail_incomplete system)
  | Ez ->
    let ez = Baselines.Ez_segway.create net ~congestion:setup.congestion in
    let flow_id = Baselines.Ez_segway.register_flow ez ~src ~dst ~size:100 ~path:old_path in
    (* Completion is the controller-received UFM, as for the others. *)
    let done_time = ref None in
    Netsim.set_controller net (fun ~from:_ _ -> done_time := Some (Sim.now sim));
    let start = Sim.now sim in
    Baselines.Ez_segway.schedule_updates ez
      [ { Baselines.Ez_segway.ur_flow = flow_id; ur_size = 100; ur_old_path = old_path;
          ur_new_path = new_path } ];
    let _ = Sim.run ~until:120_000.0 sim in
    (match !done_time with Some t -> t -. start | None -> fail_incomplete system)
  | Central ->
    let central = Baselines.Central.create net ~congestion:setup.congestion in
    let flow_id = Baselines.Central.register_flow central ~src ~dst ~size:100 ~path:old_path in
    let start = Sim.now sim in
    Baselines.Central.schedule_updates central [ (flow_id, new_path) ];
    let _ = Sim.run ~until:120_000.0 sim in
    (match Baselines.Central.completion_time central with
     | Some t -> t -. start
     | None -> fail_incomplete system)

(* ------------------------------------------------------------------ *)
(* Multiple flows                                                       *)
(* ------------------------------------------------------------------ *)

let centi flow_size = max 1 (int_of_float (flow_size *. 100.0))

(* The paper repeats the traffic generation when the drawn workload is
   not feasible; we additionally require the transition itself to be
   schedulable under the tightened capacities (no unresolvable inter-flow
   dependency cycle). *)
let workload_of topo ~seed ~congestion ~headroom =
  let graph = topo.Topo.Topologies.graph in
  let rec draw attempt =
    let rng = Random.State.make [| (seed * 7919) + attempt |] in
    let flows = Topo.Traffic.multi_flow_workload rng graph in
    if not congestion then flows
    else begin
      Topo.Traffic.tighten_capacities graph flows ~headroom;
      if Topo.Traffic.transition_schedulable graph flows || attempt > 60 then flows
      else draw (attempt + 1)
    end
  in
  draw 0

let multi_flow_time ?update_type setup system ~seed =
  let topo = setup.topo () in
  let sim = Sim.create ~seed () in
  Obs.Trace.set_clock (fun () -> Sim.now sim);
  let flows =
    workload_of topo ~seed ~congestion:setup.congestion ~headroom:setup.headroom
  in
  if flows = [] then failwith "multi_flow_time: empty workload";
  let net = Netsim.create ~config:(config_of setup) sim topo in
  match system with
  | P4u ->
    let switches =
      Array.init (Topo.Graph.node_count topo.Topo.Topologies.graph) (fun node ->
          P4update.Switch.create net ~node)
    in
    let controller = P4update.Controller.create net in
    let registered =
      List.map
        (fun (f : Topo.Traffic.flow) ->
          let flow =
            P4update.Controller.register_flow controller ~src:f.src ~dst:f.dst
              ~size:(centi f.size) ~path:f.old_path
          in
          List.iter
            (fun (l : P4update.Label.node_label) ->
              P4update.Switch.install_initial switches.(l.node) ~flow_id:flow.flow_id
                ~version:1 ~dist:l.dist_new ~egress_port:l.egress_port
                ~notify_port:l.notify_port ~size:(centi f.size))
            (P4update.Label.of_path net f.old_path);
          (flow.flow_id, f.new_path))
        flows
    in
    let start = Sim.now sim in
    let versions =
      List.map
        (fun (flow_id, new_path) ->
          (flow_id, P4update.Controller.update_flow controller ~flow_id ~new_path ?update_type ()))
        registered
    in
    let _ = Sim.run ~until:120_000.0 sim in
    let times =
      List.map
        (fun (flow_id, version) ->
          match P4update.Controller.completion_time controller ~flow_id ~version with
          | Some t -> t
          | None -> fail_incomplete system)
        versions
    in
    Stats.maximum times -. start
  | Ez ->
    let ez = Baselines.Ez_segway.create net ~congestion:setup.congestion in
    let requests =
      List.map
        (fun (f : Topo.Traffic.flow) ->
          let flow_id =
            Baselines.Ez_segway.register_flow ez ~src:f.src ~dst:f.dst ~size:(centi f.size)
              ~path:f.old_path
          in
          {
            Baselines.Ez_segway.ur_flow = flow_id;
            ur_size = centi f.size;
            ur_old_path = f.old_path;
            ur_new_path = f.new_path;
          })
        flows
    in
    let expected = List.length requests in
    let seen = Hashtbl.create 32 in
    let last = ref None in
    Netsim.set_controller net (fun ~from:_ bytes ->
        match P4update.Wire.control_of_bytes bytes with
        | Some c when c.kind = P4update.Wire.Ufm ->
          if not (Hashtbl.mem seen c.flow_id) then begin
            Hashtbl.add seen c.flow_id ();
            if Hashtbl.length seen = expected then last := Some (Sim.now sim)
          end
        | Some _ | None -> ());
    let start = Sim.now sim in
    Baselines.Ez_segway.schedule_updates ez requests;
    let _ = Sim.run ~until:120_000.0 sim in
    (match !last with Some t -> t -. start | None -> fail_incomplete system)
  | Central ->
    let central = Baselines.Central.create net ~congestion:setup.congestion in
    let updates =
      List.map
        (fun (f : Topo.Traffic.flow) ->
          let flow_id =
            Baselines.Central.register_flow central ~src:f.src ~dst:f.dst ~size:(centi f.size)
              ~path:f.old_path
          in
          (flow_id, f.new_path))
        flows
    in
    let start = Sim.now sim in
    Baselines.Central.schedule_updates central updates;
    let _ = Sim.run ~until:120_000.0 sim in
    (match Baselines.Central.completion_time central with
     | Some t -> t -. start
     | None -> fail_incomplete system)

(* ------------------------------------------------------------------ *)
(* Path selection for the single-flow WAN scenarios                     *)
(* ------------------------------------------------------------------ *)

(* The paper picks the single-flow paths "intentionally ... to traverse a
   long distance within the topology and to trigger segmentation"; we
   search all pairs and alternatives for the longest scenario containing a
   backward segment. *)
let single_flow_paths topo =
  let g = topo.Topo.Topologies.graph in
  let n = Topo.Graph.node_count g in
  let best = ref None in
  let score ~old_path ~new_path =
    let seg = P4update.Segment.compute ~old_path ~new_path in
    let backward =
      if
        List.exists
          (fun s -> s.P4update.Segment.direction = P4update.Segment.Backward)
          seg.P4update.Segment.segments
      then 1_000
      else 0
    in
    let interior =
      List.fold_left
        (fun acc s -> acc + List.length s.P4update.Segment.interior)
        0 seg.P4update.Segment.segments
    in
    (* Interior nodes of backward segments are where the dual layer's
       early installs pay off — prefer scenarios exercising them. *)
    let backward_interior =
      List.fold_left
        (fun acc s ->
          if s.P4update.Segment.direction = P4update.Segment.Backward then
            acc + List.length s.P4update.Segment.interior
          else acc)
        0 seg.P4update.Segment.segments
    in
    backward + (200 * backward_interior) + (20 * interior) + List.length old_path
    + List.length new_path
  in
  for src = 0 to n - 1 do
    for dst = src + 1 to n - 1 do
      let candidates = Topo.Graph.k_shortest_paths g ~src ~dst ~k:6 in
      List.iter
        (fun old_path ->
          List.iter
            (fun new_path ->
              if old_path <> new_path then begin
                let sc = score ~old_path ~new_path in
                match !best with
                | Some (best_sc, _, _) when best_sc >= sc -> ()
                | Some _ | None -> best := Some (sc, old_path, new_path)
              end)
            candidates)
        candidates
    done
  done;
  match !best with
  | Some (_, old_path, new_path) -> (old_path, new_path)
  | None -> failwith "single_flow_paths: no alternative path"
