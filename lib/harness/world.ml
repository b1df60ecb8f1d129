module Sim = Dessim.Sim
module C = P4update.Controller

type t = {
  sim : Sim.t;
  net : Netsim.t;
  switches : P4update.Switch.t array;
  controller : C.t;
  plane : C.t;
}

type flow_spec = { fs_src : int; fs_dst : int; fs_size : int; fs_path : int list }

let flow ?(size = 100) ~src ~dst ~path () =
  { fs_src = src; fs_dst = dst; fs_size = size; fs_path = path }

let install_flow ?flow_id w ~src ~dst ~size ~path =
  let flow = C.register_flow ?flow_id w.controller ~src ~dst ~size ~path in
  (* The initial rules are the labels an SL update of [path] stages. *)
  let p =
    C.prepare w.controller ~flow_id:flow.flow_id ~new_path:path ~update_type:P4update.Wire.Sl ()
  in
  List.iter
    (fun (node, (uim : P4update.Wire.control)) ->
      P4update.Switch.install_initial w.switches.(node) ~flow_id:flow.flow_id ~version:1
        ~dist:uim.dist_new ~egress_port:uim.egress_port ~notify_port:uim.notify_port ~size)
    p.C.p_uims;
  flow

let make ?seed ?config ?trace ?(flows = []) topo =
  let sim = Sim.create ?seed ?trace () in
  let net = Netsim.create ?config sim topo in
  let n = Topo.Graph.node_count topo.Topo.Topologies.graph in
  let switches = Array.init n (fun node -> P4update.Switch.create net ~node) in
  let controller = C.create net in
  (* A node that comes back up lost its pipeline state (§11). *)
  Netsim.on_topology_event net (function
    | Netsim.Node_up node when node >= 0 && node < n ->
      P4update.Switch.restart switches.(node)
    | _ -> ());
  let w = { sim; net; switches; controller; plane = controller } in
  List.iter
    (fun fs ->
      ignore (install_flow w ~src:fs.fs_src ~dst:fs.fs_dst ~size:fs.fs_size ~path:fs.fs_path))
    flows;
  w

let find_flow w ~flow_id = C.find_flow w.controller ~flow_id

let flow_of_pair w ~src ~dst =
  let flow_id =
    Topo.Traffic.flow_id_of_pair ~src ~dst land (P4update.Wire.flow_space - 1)
  in
  find_flow w ~flow_id

let flows w =
  List.sort
    (fun a b -> compare a.C.flow_id b.C.flow_id)
    (C.flows w.controller)

let run ?until w = Sim.run ?until w.sim
