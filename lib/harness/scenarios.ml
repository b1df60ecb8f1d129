module Sim = Dessim.Sim

type system = P4u | Ez | Central

let system_name = function P4u -> "P4Update" | Ez -> "ez-Segway" | Central -> "Central"
let all_systems = [ P4u; Ez; Central ]
let runs = 30

type flows = Single | Multi of { headroom : float }

type setup = { topo : unit -> Topo.Topologies.t; flows : flows; config : Netsim.config }

(* §9.1: Exp(100 ms) straggler installs for single flows; control latency
   Normal(5, 2) on a datacenter (the fat-tree), elsewhere the path latency
   to the controller node. *)
let make flows topo =
  let control_latency =
    match (topo ()).Topo.Topologies.kind with
    | Topo.Topologies.Datacenter -> Netsim.Normal_dist { mean = 5.0; stddev = 2.0 }
    | Topo.Topologies.Wan | Topo.Topologies.Synthetic -> Netsim.Geo
  in
  let rule_update_mean_ms = match flows with Single -> Some 100.0 | Multi _ -> None in
  { topo; flows; config = { Netsim.default_config with rule_update_mean_ms; control_latency } }

let single topo = make Single topo
let multi ~headroom topo = make (Multi { headroom }) topo

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type update = { src : int; dst : int; size : int; old_path : int list; new_path : int list }

let centi flow_size = max 1 (int_of_float (flow_size *. 100.0))

(* The paper repeats the traffic generation when the drawn workload is
   not feasible; we additionally require the transition itself to be
   schedulable under the tightened capacities (no unresolvable inter-flow
   dependency cycle). *)
let workload_of topo ~seed ~headroom =
  let graph = topo.Topo.Topologies.graph in
  let rec draw attempt =
    let rng = Random.State.make [| (seed * 7919) + attempt |] in
    let flows = Topo.Traffic.multi_flow_workload rng graph in
    Topo.Traffic.tighten_capacities graph flows ~headroom;
    if Topo.Traffic.transition_schedulable graph flows || attempt > 60 then flows
    else draw (attempt + 1)
  in
  match draw 0 with
  | [] -> failwith "multi-flow workload: empty"
  | flows ->
    List.map
      (fun (f : Topo.Traffic.flow) ->
        { src = f.src; dst = f.dst; size = centi f.size; old_path = f.old_path;
          new_path = f.new_path })
      flows

(* ------------------------------------------------------------------ *)
(* One run per system: install the old paths, push every update at      *)
(* t = 0, return the time of the last completion                        *)
(* ------------------------------------------------------------------ *)

let horizon_ms = 120_000.0
let fail_incomplete system = failwith (system_name system ^ ": update did not complete")

let run_p4u ?update_type ?trace config topo ~seed updates =
  let w = World.make ~seed ~config ?trace topo in
  let flow_ids =
    List.map
      (fun u ->
        (World.install_flow w ~src:u.src ~dst:u.dst ~size:u.size ~path:u.old_path)
          .P4update.Controller.flow_id)
      updates
  in
  let versions =
    List.map2
      (fun flow_id u ->
        ( flow_id,
          P4update.Controller.update_flow w.World.controller ~flow_id
            ~new_path:u.new_path ?update_type () ))
      flow_ids updates
  in
  ignore (World.run ~until:horizon_ms w);
  List.map
    (fun (flow_id, version) ->
      match P4update.Controller.completion_time w.World.controller ~flow_id ~version with
      | Some t -> t
      | None -> fail_incomplete P4u)
    versions
  |> Stats.maximum

(* Completion is the controller-received UFM, as for the others. *)
let run_ez net ~congestion updates =
  let sim = Netsim.sim net in
  let ez = Baselines.Ez_segway.create net ~congestion in
  let requests =
    List.map
      (fun u ->
        { Baselines.Ez_segway.ur_flow =
            Baselines.Ez_segway.register_flow ez ~src:u.src ~dst:u.dst ~size:u.size
              ~path:u.old_path;
          ur_size = u.size; ur_old_path = u.old_path; ur_new_path = u.new_path })
      updates
  in
  let expected = List.length requests in
  let seen = Hashtbl.create 32 in
  let last = ref None in
  Netsim.set_controller net (fun ~from:_ bytes ->
      match P4update.Wire.control_of_bytes bytes with
      | Some c when c.kind = P4update.Wire.Ufm && not (Hashtbl.mem seen c.flow_id) ->
        Hashtbl.add seen c.flow_id ();
        if Hashtbl.length seen = expected then last := Some (Sim.now sim)
      | Some _ | None -> ());
  Baselines.Ez_segway.schedule_updates ez requests;
  ignore (Sim.run ~until:horizon_ms sim);
  match !last with Some t -> t | None -> fail_incomplete Ez

let run_central net ~congestion updates =
  let central = Baselines.Central.create net ~congestion in
  Baselines.Central.schedule_updates central
    (List.map
       (fun u ->
         ( Baselines.Central.register_flow central ~src:u.src ~dst:u.dst ~size:u.size
             ~path:u.old_path,
           u.new_path ))
       updates);
  ignore (Sim.run ~until:horizon_ms (Netsim.sim net));
  match Baselines.Central.completion_time central with
  | Some t -> t
  | None -> fail_incomplete Central

(* The seed's updates on a fresh topology; a single flow moves [paths]. *)
let run_with ?update_type ?trace setup system ~paths ~seed =
  let topo = setup.topo () in
  let updates, congestion =
    match setup.flows with
    | Single ->
      let old_path, new_path = Lazy.force paths in
      let dst = List.nth old_path (List.length old_path - 1) in
      ([ { src = List.hd old_path; dst; size = 100; old_path; new_path } ], false)
    | Multi { headroom } -> (workload_of topo ~seed ~headroom, true)
  in
  let baseline_net () =
    Netsim.create ~config:setup.config (Sim.create ~seed ?trace ()) topo
  in
  match system with
  | P4u -> run_p4u ?update_type ?trace setup.config topo ~seed updates
  | Ez -> run_ez (baseline_net ()) ~congestion updates
  | Central -> run_central (baseline_net ()) ~congestion updates

(* ------------------------------------------------------------------ *)
(* Path selection for the single-flow scenarios                         *)
(* ------------------------------------------------------------------ *)

(* The paper picks the single-flow paths "intentionally ... to traverse a
   long distance within the topology and to trigger segmentation"; we
   search all pairs and alternatives for the longest scenario containing a
   backward segment. *)
let single_flow_paths topo =
  let g = topo.Topo.Topologies.graph in
  let n = Topo.Graph.node_count g in
  let best = ref None in
  (* Each candidate pair is segmented as the controller prepares it: a DL
     update of one stand-in flow from [old_path]. *)
  let ctl = P4update.Controller.create (Netsim.create (Sim.create ()) topo) in
  ignore (P4update.Controller.register_flow ctl ~flow_id:0 ~src:0 ~dst:0 ~size:100 ~path:[]);
  let score ~old_path ~new_path =
    let seg =
      Option.get
        (P4update.Controller.prepare ctl ~flow_id:0 ~new_path ~assume_old_path:old_path
           ~update_type:P4update.Wire.Dl ())
          .P4update.Controller.p_segments
    in
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

let single_paths topo =
  if topo.Topo.Topologies.name = (Topo.Topologies.fig1 ()).Topo.Topologies.name then
    (Topo.Topologies.fig1_old_path, Topo.Topologies.fig1_new_path)
  else single_flow_paths topo

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let paths_of setup = lazy (single_paths (setup.topo ()))

let run ?update_type ?trace setup system ~seed =
  run_with ?update_type ?trace setup system ~paths:(paths_of setup) ~seed

(* A congested transition can be genuinely unschedulable for a
   one-move-at-a-time heuristic (the 15-puzzle effect, §7.4); such seeds
   are skipped and the reported n shrinks. *)
let sample ?update_type ~seed ~runs setup system =
  let paths = paths_of setup in
  List.init runs (fun i -> seed + i)
  |> List.filter_map (fun seed ->
         match run_with ?update_type setup system ~paths ~seed with
         | t -> Some t
         | exception Failure _ -> None)
