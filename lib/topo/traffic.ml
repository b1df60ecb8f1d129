type flow = {
  flow_id : int;
  src : int;
  dst : int;
  size : float;
  old_path : int list;
  new_path : int list;
}

let flow_space = 1024

(* Deterministic mixing of the (src, dst) pair into a register index,
   standing in for the P4 hash the ingress computes for the FRM. *)
let flow_id_of_pair ~src ~dst =
  let h = (src * 0x9e37) lxor (dst * 0x85eb) lxor ((src + dst) lsl 7) in
  h land (flow_space - 1)

let directed_pairs_of_path path =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  pairs path

(* Flow sizes summed per directed link under the old ([use_new = false])
   or new paths, as an association list over directed node pairs. *)
let link_loads _graph flows ~use_new =
  let table = Hashtbl.create 64 in
  List.iter
    (fun flow ->
      let path = if use_new then flow.new_path else flow.old_path in
      List.iter
        (fun link ->
          let current = Option.value (Hashtbl.find_opt table link) ~default:0.0 in
          Hashtbl.replace table link (current +. flow.size))
        (directed_pairs_of_path path))
    flows;
  Hashtbl.fold (fun link load acc -> (link, load) :: acc) table []

let feasible graph flows ~use_new =
  link_loads graph flows ~use_new
  |> List.for_all (fun ((u, v), load) -> load <= Graph.capacity graph u v +. 1e-9)

let gravity_sizes rng flows =
  (* Gravity model: node weight ~ Uniform(0.5, 1.5); demand proportional to
     the product of endpoint weights. *)
  let weight = Hashtbl.create 16 in
  let weight_of node =
    match Hashtbl.find_opt weight node with
    | Some w -> w
    | None ->
      let w = 0.5 +. Random.State.float rng 1.0 in
      Hashtbl.add weight node w;
      w
  in
  List.map (fun flow -> { flow with size = weight_of flow.src *. weight_of flow.dst }) flows

let scale_to_capacity graph flows ~utilization =
  (* Find the most loaded link under either assignment, then rescale all
     sizes so that its load sits at [utilization] of capacity — "close to
     the network's capacity" as in §9.1. *)
  let worst_ratio =
    List.fold_left
      (fun acc ((u, v), load) -> Float.max acc (load /. Graph.capacity graph u v))
      0.0
      (link_loads graph flows ~use_new:false @ link_loads graph flows ~use_new:true)
  in
  if worst_ratio <= 0.0 then flows
  else
    let factor = utilization /. worst_ratio in
    List.map (fun flow -> { flow with size = flow.size *. factor }) flows

let multi_flow_workload ?(utilization = 0.98) rng graph =
  let n = Graph.node_count graph in
  let flows = ref [] in
  let used_ids = Hashtbl.create 32 in
  for src = 0 to n - 1 do
    (* Redraw the destination on a flow-id hash collision (the registers
       are indexed by the 10-bit hash, so colliding flows would share
       state). *)
    let rec attempt tries =
      if tries = 0 then ()
      else begin
        let dst =
          let d = Random.State.int rng (n - 1) in
          if d >= src then d + 1 else d
        in
        let flow_id = flow_id_of_pair ~src ~dst in
        if Hashtbl.mem used_ids flow_id then attempt (tries - 1)
        else
          match Graph.k_shortest_paths graph ~src ~dst ~k:2 with
          | [ old_path; new_path ] ->
            Hashtbl.add used_ids flow_id ();
            flows := { flow_id; src; dst; size = 1.0; old_path; new_path } :: !flows
          | _ -> () (* no second path: skip this node, as in the paper's setup *)
      end
    in
    attempt 5
  done;
  let flows = gravity_sizes rng (List.rev !flows) in
  scale_to_capacity graph flows ~utilization

let tighten_capacities graph flows ~headroom =
  if headroom < 1.0 then invalid_arg "Traffic.tighten_capacities: headroom below 1";
  let old_loads = link_loads graph flows ~use_new:false in
  let new_loads = link_loads graph flows ~use_new:true in
  let load_of loads (u, v) = Option.value (List.assoc_opt (u, v) loads) ~default:0.0 in
  let used = Hashtbl.create 32 in
  List.iter (fun ((u, v), _) -> Hashtbl.replace used (min u v, max u v) ()) old_loads;
  List.iter (fun ((u, v), _) -> Hashtbl.replace used (min u v, max u v) ()) new_loads;
  Hashtbl.iter
    (fun (u, v) () ->
      (* Capacity is per direction in the accounting but stored per edge:
         take the worst direction. *)
      let worst =
        List.fold_left Float.max 0.01
          [
            load_of old_loads (u, v); load_of old_loads (v, u);
            load_of new_loads (u, v); load_of new_loads (v, u);
          ]
      in
      Graph.set_capacity graph u v (worst *. headroom))
    used

(* One-move-at-a-time abstract scheduler: each flow's per-node moves apply
   egress-first; a move needs capacity on its new link.  Greedy with
   restarts over flows until no progress. *)
let transition_schedulable_in_order graph flows =
  let load = Hashtbl.create 64 in
  List.iter
    (fun ((u, v), l) -> Hashtbl.replace load (u, v) l)
    (link_loads graph flows ~use_new:false);
  let load_of link = Option.value (Hashtbl.find_opt load link) ~default:0.0 in
  let moves_of flow =
    (* (node, old outgoing link option, new outgoing link option), ordered
       egress side first. *)
    let next_of path =
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      pairs path
    in
    let old_next = next_of flow.old_path and new_next = next_of flow.new_path in
    List.rev_map
      (fun (node, succ) ->
        (node, List.assoc_opt node old_next |> Option.map (fun s -> (node, s)), Some (node, succ)))
      new_next
  in
  let pending = List.map (fun f -> (f, ref (moves_of f))) flows in
  let try_move flow remaining =
    match !remaining with
    | [] -> false
    | (_node, old_link, new_link) :: rest ->
      let size = flow.size in
      let fits =
        match new_link with
        | None -> true
        | Some ((u, v) as link) ->
          (match old_link with
           | Some l when l = link -> true
           | _ -> load_of link +. size <= Graph.capacity graph u v +. 1e-9)
      in
      if fits then begin
        (match new_link with
         | Some link when old_link <> Some link ->
           Hashtbl.replace load link (load_of link +. size)
         | _ -> ());
        (match old_link with
         | Some link when new_link <> Some link ->
           Hashtbl.replace load link (Float.max 0.0 (load_of link -. size))
         | _ -> ());
        remaining := rest;
        true
      end
      else false
  in
  (* Eager round-robin, like the runtime: every chain advances as soon as
     its next move fits; nobody politely waits.  This is pessimistic
     relative to an oracle scheduler, which matches the §7.4 heuristic's
     actual behaviour and screens out workloads it would deadlock on. *)
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (flow, remaining) -> while try_move flow remaining do progress := true done)
      pending
  done;
  List.for_all (fun (_, remaining) -> !remaining = []) pending

(* Accept a workload only if the eager schedule completes under several
   different flow orders: the runtime's race winners are timing-dependent,
   so an order-sensitive workload would deadlock some of the systems. *)
let transition_schedulable graph flows =
  let base = Array.of_list flows in
  let n = Array.length base in
  let shuffle k =
    let arr = Array.copy base in
    let rng = Random.State.make [| 729 * (k + 1) |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  transition_schedulable_in_order graph flows
  && List.for_all
       (fun k -> transition_schedulable_in_order graph (shuffle k))
       (List.init 7 Fun.id)
