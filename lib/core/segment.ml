type direction = Forward | Backward

type segment = {
  ingress_gateway : int;
  egress_gateway : int;
  interior : int list;
  direction : direction;
}

type t = {
  gateways : int list;
  segments : segment list;
}

let compute ~old_path ~new_path =
  (match (old_path, new_path) with
   | [], _ | _, [] -> invalid_arg "Segment.compute: empty path"
   | o :: _, n :: _ when o <> n -> invalid_arg "Segment.compute: ingress mismatch"
   | _ ->
     if List.nth old_path (List.length old_path - 1)
        <> List.nth new_path (List.length new_path - 1)
     then invalid_arg "Segment.compute: egress mismatch");
  (* Paths are a handful of hops: association lists beat hash tables. *)
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

let forward_count t =
  List.length (List.filter (fun s -> s.direction = Forward) t.segments)

let forward_interior_nodes t =
  List.concat_map
    (fun s -> if s.direction = Forward then s.interior else [])
    t.segments
