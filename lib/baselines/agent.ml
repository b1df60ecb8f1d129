module Sim = Dessim.Sim

(* ez-Segway and Central run their coordination logic in a local agent on
   the switch CPU (slow path), not in the forwarding pipeline; every
   control message pays this processing overhead (cf. §10: P4Update keeps
   verification in the data plane). *)
let control_processing_ms = 1.5

type t = {
  net : Netsim.t;
  node : int;
  table : (int, int) Hashtbl.t; (* flow id -> port *)
  flow_sizes : (int, int) Hashtbl.t;
  port_reserved : (int, int) Hashtbl.t;
  versions : (int, int) Hashtbl.t; (* flow id -> newest command version seen *)
  cleaned : (int, unit) Hashtbl.t; (* flows whose reservation a cleanup already freed *)
}

let node t = t.node

let port_of t ~flow_id =
  Option.value (Hashtbl.find_opt t.table flow_id) ~default:P4update.Wire.port_none

let reserved t ~port = Option.value (Hashtbl.find_opt t.port_reserved port) ~default:0

let capacity t ~port =
  match Netsim.neighbor_of_port t.net ~node:t.node ~port with
  | None -> max_int
  | Some neighbor ->
    int_of_float (Topo.Graph.capacity (Netsim.graph t.net) t.node neighbor *. 100.0)

let remaining t ~port = capacity t ~port - reserved t ~port

let is_real_port port = port <> P4update.Wire.port_none && port <> P4update.Wire.port_local

let adjust_reservation t ~port ~delta =
  if is_real_port port then
    Hashtbl.replace t.port_reserved port (max 0 (reserved t ~port + delta))

let reserve_initial t ~flow_id ~port ~size =
  Hashtbl.replace t.flow_sizes flow_id size;
  adjust_reservation t ~port ~delta:size

let set_rule t ~flow_id ~port = Hashtbl.replace t.table flow_id port

let note_version t ~flow_id ~version =
  if version > Option.value (Hashtbl.find_opt t.versions flow_id) ~default:0 then
    Hashtbl.replace t.versions flow_id version

let last_version t ~flow_id = Option.value (Hashtbl.find_opt t.versions flow_id) ~default:0

let cleanup_msg t ~flow_id ~version =
  {
    (P4update.Wire.control_default P4update.Wire.Cln) with
    flow_id;
    version_new = version;
    src_node = t.node;
  }

let install t ~flow_id ~port ~size ~k =
  (* Re-writing an identical rule skips the platform's install delay. *)
  let unchanged =
    port_of t ~flow_id = port
    && Option.value (Hashtbl.find_opt t.flow_sizes flow_id) ~default:0 = size
  in
  let delay = if unchanged then 0.0 else Netsim.rule_update_delay t.net ~node:t.node in
  Sim.schedule (Netsim.sim t.net) ~delay (fun () ->
      let old_port = port_of t ~flow_id in
      let old_size =
        if Hashtbl.mem t.cleaned flow_id then 0
        else Option.value (Hashtbl.find_opt t.flow_sizes flow_id) ~default:0
      in
      Hashtbl.remove t.cleaned flow_id;
      adjust_reservation t ~port ~delta:size;
      adjust_reservation t ~port:old_port ~delta:(-old_size);
      Hashtbl.replace t.flow_sizes flow_id size;
      Hashtbl.replace t.table flow_id port;
      (* Rule cleanup (§11) down the abandoned old link. *)
      if is_real_port old_port && old_port <> port then
        Netsim.transmit t.net ~from:t.node ~port:old_port
          (P4update.Wire.control_to_bytes
             (cleanup_msg t ~flow_id ~version:(last_version t ~flow_id)));
      k ())

let handle_cleanup t ~flow_id ~version =
  (* Release the reservation once; the stale rule stays (other stale
     parents may still route through this node). *)
  if last_version t ~flow_id < version && not (Hashtbl.mem t.cleaned flow_id) then begin
    let port = port_of t ~flow_id in
    if is_real_port port then begin
      let size = Option.value (Hashtbl.find_opt t.flow_sizes flow_id) ~default:0 in
      adjust_reservation t ~port ~delta:(-size);
      Hashtbl.add t.cleaned flow_id ();
      Netsim.transmit t.net ~from:t.node ~port
        (P4update.Wire.control_to_bytes (cleanup_msg t ~flow_id ~version))
    end
  end

let send t ~port msg =
  if port <> P4update.Wire.port_none then
    Netsim.transmit t.net ~from:t.node ~port (P4update.Wire.control_to_bytes msg)

let send_to_controller t msg =
  Netsim.notify_controller t.net ~from:t.node (P4update.Wire.control_to_bytes msg)

(* No rule, local delivery and an expiring ttl all end the packet here. *)
let handle_data t (d : P4update.Wire.data) =
  let port = port_of t ~flow_id:d.d_flow_id in
  if port <> P4update.Wire.port_none && port <> P4update.Wire.port_local && d.ttl > 1 then
    Netsim.transmit t.net ~from:t.node ~port
      (P4update.Wire.data_to_bytes { d with ttl = d.ttl - 1 })

let create network ~node ~on_message =
  let t =
    {
      net = network;
      node;
      table = Hashtbl.create 32;
      flow_sizes = Hashtbl.create 32;
      port_reserved = Hashtbl.create 8;
      versions = Hashtbl.create 32;
      cleaned = Hashtbl.create 32;
    }
  in
  let dispatch ~port bytes =
    match P4update.Wire.control_of_bytes bytes with
    | Some c ->
      let c =
        { c with P4update.Wire.flow_id = c.P4update.Wire.flow_id land (P4update.Wire.flow_space - 1) }
      in
      (* Control messages take the slow path through the local agent. *)
      Sim.schedule (Netsim.sim network) ~delay:control_processing_ms (fun () ->
          on_message t ~from_port:port c)
    | None ->
      (match P4update.Wire.data_of_bytes bytes with
       | Some d -> handle_data t d
       | None -> ())
  in
  Netsim.attach network ~node dispatch;
  t

let inject_data t d = handle_data t d

(* ---- one flow across every node's agent ------------------------------ *)

let register_flow agents ~src ~dst ~size ~path =
  let flow_id = Topo.Traffic.flow_id_of_pair ~src ~dst land (P4update.Wire.flow_space - 1) in
  let arr = Array.of_list path in
  Array.iteri
    (fun i node ->
      let a = agents.(node) in
      let port =
        if i = Array.length arr - 1 then P4update.Wire.port_local
        else Netsim.port_of_neighbor a.net ~node ~neighbor:arr.(i + 1)
      in
      set_rule a ~flow_id ~port;
      reserve_initial a ~flow_id ~port ~size)
    arr;
  flow_id

let trace agents ~flow_id ~src =
  let net = agents.(src).net in
  let n = Topo.Graph.node_count (Netsim.graph net) in
  let rec walk node acc steps =
    if steps > n then None
    else
      let port = port_of agents.(node) ~flow_id in
      if port = P4update.Wire.port_local then Some (List.rev (node :: acc))
      else if port = P4update.Wire.port_none then None
      else
        match Netsim.neighbor_of_port net ~node ~port with
        | None -> None
        | Some next -> walk next (node :: acc) (steps + 1)
  in
  walk src [] 0
