(* Reference preparation: the list pipeline [Controller.prepare] once
   ran, kept as the oracle its one-walk kernel is checked against.

   - [choose_type] segments the update and scans successor pairs for the
     §7.5 SL/DL choice;
   - [Label.of_path_with] labels the new path (distance, ports, ingress
     and egress roles);
   - for DL, [Segment.compute] again and [Segment.annotate] add the
     gateway and segment-egress roles;
   - every UIM is a copy of [Wire.control_default Uim].

   Ports come from [Netsim.port_of_neighbor], which raises the message the
   controller's cached index raised. *)

open P4update

module Label = struct
  type node_label = {
    node : int;
    dist_new : int;
    egress_port : int;
    notify_port : int;
    role : int;
  }

  let distances path =
    let k = List.length path - 1 in
    List.mapi (fun i node -> (node, k - i)) path

  let of_path_with ~port_of path =
    if path = [] then invalid_arg "Controller.prepare: empty path";
    let k = List.length path - 1 in
    let arr = Array.of_list path in
    List.mapi
      (fun i node ->
        let egress_port =
          if i = k then Wire.port_local else port_of ~node ~neighbor:arr.(i + 1)
        in
        let notify_port =
          if i = 0 then Wire.port_none else port_of ~node ~neighbor:arr.(i - 1)
        in
        let role =
          (if i = k then Wire.role_flow_egress else 0)
          lor if i = 0 then Wire.role_flow_ingress else 0
        in
        { node; dist_new = k - i; egress_port; notify_port; role })
      path

  let of_path net path =
    of_path_with path ~port_of:(fun ~node ~neighbor ->
        Netsim.port_of_neighbor net ~node ~neighbor)
end

module Segment = struct
  include P4update.Segment

  let compute ~old_path ~new_path =
    (match (old_path, new_path) with
     | [], _ | _, [] -> invalid_arg "Controller.prepare: empty old or new path"
     | o :: _, n :: _ when o <> n -> invalid_arg "Controller.prepare: ingress mismatch"
     | _ ->
       if List.nth old_path (List.length old_path - 1)
          <> List.nth new_path (List.length new_path - 1)
       then invalid_arg "Controller.prepare: egress mismatch");
    let old_dist_assoc = Label.distances old_path in
    let old_dist node = List.assoc node old_dist_assoc in
    let on_old node = List.mem_assoc node old_dist_assoc in
    let gateways = List.filter on_old new_path in
    (* Walk the new path, cutting at every gateway. *)
    let rec split acc current = function
      | [] -> List.rev acc
      | node :: rest ->
        if on_old node then
          match current with
          | [] -> split acc [ node ] rest
          | _ ->
            let seg_nodes = List.rev (node :: current) in
            split (seg_nodes :: acc) [ node ] rest
        else split acc (node :: current) rest
    in
    let chunks = split [] [] new_path in
    let segments =
      List.map
        (fun seg_nodes ->
          match seg_nodes with
          | ingress_gateway :: rest ->
            let egress_gateway = List.nth seg_nodes (List.length seg_nodes - 1) in
            let interior =
              match List.rev rest with _ :: mid_rev -> List.rev mid_rev | [] -> []
            in
            let d_in = old_dist ingress_gateway in
            let d_out = old_dist egress_gateway in
            let direction = if d_out < d_in then Forward else Backward in
            { ingress_gateway; egress_gateway; interior; direction }
          | [] -> invalid_arg "Segment.compute: empty segment")
        chunks
    in
    { gateways; segments }

  let annotate t labels =
    let egress_gateways = List.map (fun s -> s.egress_gateway) t.segments in
    List.map
      (fun (l : Label.node_label) ->
        let role = ref l.role in
        if List.mem l.node t.gateways then role := !role lor Wire.role_gateway;
        if List.mem l.node egress_gateways then role := !role lor Wire.role_segment_egress;
        { l with role = !role })
      labels
end

let sl_threshold = 5

let choose_type ~allow_consecutive_dl ~old_path ~new_path ~last_type =
  if last_type = Wire.Dl && not allow_consecutive_dl then Wire.Sl
  else
    let seg = Segment.compute ~old_path ~new_path in
    let all_forward =
      List.for_all (fun s -> s.Segment.direction = Segment.Forward) seg.Segment.segments
    in
    let fresh_nodes =
      let next_of path =
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
          | _ -> []
        in
        pairs path
      in
      let old_next = next_of old_path in
      List.filter
        (fun (node, succ) ->
          match List.assoc_opt node old_next with
          | Some old_succ -> old_succ <> succ
          | None -> true)
        (next_of new_path)
    in
    if all_forward && List.length fresh_nodes <= sl_threshold then Wire.Sl else Wire.Dl

(* [Controller.prepare] as it was; the controller's
   [set_allow_consecutive_dl] setting is passed in. *)
let prepare ~allow_consecutive_dl ctl net ~flow_id ~new_path ?update_type ?assume_old_path
    ?(two_phase = false) () =
  let flow =
    match Controller.find_flow ctl ~flow_id with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Controller.prepare: unknown flow %d" flow_id)
  in
  let old_path = Option.value assume_old_path ~default:flow.Controller.path in
  let p_type =
    match update_type with
    | Some ut -> ut
    | None ->
      choose_type ~allow_consecutive_dl ~old_path ~new_path
        ~last_type:flow.Controller.last_type
  in
  let labels = Label.of_path net new_path in
  let labels, segments =
    match p_type with
    | Wire.Sl -> (labels, None)
    | Wire.Dl ->
      let seg = Segment.compute ~old_path ~new_path in
      (Segment.annotate seg labels, Some seg)
  in
  let version = flow.Controller.version + 1 in
  let src_node = (Netsim.topology net).Topo.Topologies.controller in
  let uims =
    List.map
      (fun (l : Label.node_label) ->
        ( l.node,
          {
            (Wire.control_default Wire.Uim) with
            flow_id;
            version_new = version;
            dist_new = l.dist_new;
            update_type = p_type;
            flow_size = flow.Controller.size;
            egress_port = l.egress_port;
            notify_port = l.notify_port;
            role = (l.role lor if two_phase then Wire.role_two_phase else 0);
            src_node;
          } ))
      labels
  in
  {
    Controller.p_flow = flow_id;
    p_version = version;
    p_type;
    p_uims = uims;
    p_segments = segments;
    p_old_path = old_path;
  }
