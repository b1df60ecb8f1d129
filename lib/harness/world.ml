module Sim = Dessim.Sim

type t = {
  sim : Sim.t;
  net : Netsim.t;
  switches : P4update.Switch.t array;
  controller : P4update.Controller.t;
  plane : Control.Plane.t;
  partition : Control.Partition.t option;
}

type flow_spec = { fs_src : int; fs_dst : int; fs_size : int; fs_path : int list }

let flow ?(size = 100) ~src ~dst ~path () =
  { fs_src = src; fs_dst = dst; fs_size = size; fs_path = path }

let install_flow ?flow_id w ~src ~dst ~size ~path =
  let flow = Control.Plane.register_flow ?flow_id w.plane ~src ~dst ~size ~path in
  let labels = P4update.Label.of_path w.net path in
  List.iter
    (fun (l : P4update.Label.node_label) ->
      P4update.Switch.install_initial w.switches.(l.node) ~flow_id:flow.flow_id ~version:1
        ~dist:l.dist_new ~egress_port:l.egress_port ~notify_port:l.notify_port ~size)
    labels;
  flow

let make ?seed ?config ?(shards = 1) ?(flows = []) topo =
  let sim = Sim.create ?seed () in
  (* Trace timestamps follow this world's simulated clock (no-op when no
     sink is installed). *)
  Obs.Trace.set_clock (fun () -> Sim.now sim);
  let net = Netsim.create ?config sim topo in
  let n = Topo.Graph.node_count topo.Topo.Topologies.graph in
  let switches = Array.init n (fun node -> P4update.Switch.create net ~node) in
  let controller, plane, partition =
    if shards <= 1 then begin
      let c = P4update.Controller.create net in
      (c, Control.Plane.single c, None)
    end
    else begin
      let pt =
        Control.Partition.make
          ~seed:(Option.value seed ~default:0)
          topo.Topo.Topologies.graph ~k:shards
      in
      let sd = Control.Sharded.create net pt in
      (Control.Sharded.controller sd 0, Control.Sharded.plane sd, Some pt)
    end
  in
  (* Split the network's control-plane counters by wire kind (FRM/UIM/...). *)
  Netsim.set_control_classifier net P4update.Wire.control_kind_of_bytes;
  (* A node that comes back up lost its pipeline state (§11). *)
  Netsim.on_topology_event net (function
    | Netsim.Node_up node when node >= 0 && node < n ->
      P4update.Switch.restart switches.(node)
    | _ -> ());
  let w = { sim; net; switches; controller; plane; partition } in
  List.iter
    (fun fs ->
      ignore (install_flow w ~src:fs.fs_src ~dst:fs.fs_dst ~size:fs.fs_size ~path:fs.fs_path))
    flows;
  w

let find_flow w ~flow_id = Control.Plane.find_flow w.plane ~flow_id

let flow_of_pair w ~src ~dst =
  let flow_id =
    Topo.Traffic.flow_id_of_pair ~src ~dst land (P4update.Wire.flow_space - 1)
  in
  find_flow w ~flow_id

let flows w =
  List.sort
    (fun a b -> compare a.P4update.Controller.flow_id b.P4update.Controller.flow_id)
    (Control.Plane.flows w.plane)

let run ?until w = Sim.run ?until w.sim
