module Sim = Dessim.Sim
module Wire = P4update.Wire

(* ------------------------------------------------------------------ *)
(* Fig. 2                                                               *)
(* ------------------------------------------------------------------ *)

type fig2_result = {
  f2_system : string;
  f2_sent : int;
  f2_v1_arrivals : (float * int) list;
  f2_v4_arrivals : (float * int) list;
  f2_duplicated : int;
  f2_max_copies : int;
  f2_lost : int;
}

let fig2_packet_interval_ms = 8.0 (* 125 pps *)
let fig2_ttl = 64
let fig2_push_c_at = 100.0
let fig2_push_b_at = 300.0
let fig2_horizon = 700.0

let fig2_observers net ~flow_id =
  let v1 = ref [] and v4 = ref [] in
  Netsim.on_delivery net (fun time node _port bytes ->
      match Wire.data_of_bytes bytes with
      | Some d when d.Wire.d_flow_id = flow_id ->
        if node = 1 then v1 := (time, d.Wire.seq) :: !v1;
        if node = 4 then v4 := (time, d.Wire.seq) :: !v4
      | Some _ | None -> ());
  (v1, v4)

let fig2_summarize ~system ~sent ~v1 ~v4 =
  let v1 = List.rev v1 and v4 = List.rev v4 in
  let copies = Hashtbl.create 64 in
  List.iter
    (fun (_, seq) ->
      Hashtbl.replace copies seq (1 + Option.value (Hashtbl.find_opt copies seq) ~default:0))
    v1;
  let duplicated = Hashtbl.fold (fun _ c acc -> if c > 1 then acc + 1 else acc) copies 0 in
  let max_copies = Hashtbl.fold (fun _ c acc -> max c acc) copies 0 in
  let delivered = Hashtbl.create 64 in
  List.iter (fun (_, seq) -> Hashtbl.replace delivered seq ()) v4;
  let lost =
    let missing = ref 0 in
    for seq = 0 to sent - 1 do
      if not (Hashtbl.mem delivered seq) then incr missing
    done;
    !missing
  in
  {
    f2_system = system;
    f2_sent = sent;
    f2_v1_arrivals = v1;
    f2_v4_arrivals = v4;
    f2_duplicated = duplicated;
    f2_max_copies = max_copies;
    f2_lost = lost;
  }

let fig2_p4update ~seed =
  let w = World.make ~seed (Topo.Topologies.fig2 ()) in
  let sim = w.World.sim and controller = w.World.controller in
  let flow =
    World.install_flow w ~src:0 ~dst:4 ~size:50 ~path:Topo.Topologies.fig2_config_a
  in
  let v1, v4 = fig2_observers w.World.net ~flow_id:flow.flow_id in
  (* Version 2 targets configuration (b); version 3, computed against the
     (b) view, targets configuration (c).  (c) is pushed first; (b)'s
     messages are delayed (§4.1). *)
  let p_b =
    P4update.Controller.prepare controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig2_config_b ~update_type:Wire.Sl ()
  in
  P4update.Controller.bump_version controller ~flow_id:flow.flow_id;
  let p_c =
    P4update.Controller.prepare controller ~flow_id:flow.flow_id
      ~new_path:Topo.Topologies.fig2_config_c ~update_type:Wire.Sl
      ~assume_old_path:Topo.Topologies.fig2_config_b ()
  in
  Sim.schedule sim ~delay:fig2_push_c_at (fun () -> P4update.Controller.push controller p_c);
  Sim.schedule sim ~delay:fig2_push_b_at (fun () -> P4update.Controller.push controller p_b);
  let sent = ref 0 in
  let rec generator () =
    if Sim.now sim < fig2_horizon then begin
      P4update.Switch.inject_data w.World.switches.(0)
        { Wire.d_flow_id = flow.flow_id; seq = !sent; ttl = fig2_ttl; origin = 0; dst = 4; tag = 0; d_ts = 0 };
      incr sent;
      Sim.schedule sim ~delay:fig2_packet_interval_ms generator
    end
  in
  generator ();
  let _ = Sim.run ~until:(fig2_horizon +. 500.0) sim in
  fig2_summarize ~system:"SL-P4Update" ~sent:!sent ~v1:!v1 ~v4:!v4

let fig2_ez ~seed =
  let topo = Topo.Topologies.fig2 () in
  let sim = Sim.create ~seed () in
  let net = Netsim.create sim topo in
  let ez = Baselines.Ez_segway.create net ~congestion:false in
  let flow_id =
    Baselines.Ez_segway.register_flow ez ~src:0 ~dst:4 ~size:50
      ~path:Topo.Topologies.fig2_config_a
  in
  let v1, v4 = fig2_observers net ~flow_id in
  let plan_c =
    Baselines.Ez_segway.prepare net ~congestion:false
      [ { Baselines.Ez_segway.ur_flow = flow_id; ur_size = 50;
          ur_old_path = Topo.Topologies.fig2_config_b;
          ur_new_path = Topo.Topologies.fig2_config_c } ]
  in
  let plan_b =
    Baselines.Ez_segway.prepare net ~congestion:false
      [ { Baselines.Ez_segway.ur_flow = flow_id; ur_size = 50;
          ur_old_path = Topo.Topologies.fig2_config_a;
          ur_new_path = Topo.Topologies.fig2_config_b } ]
  in
  Sim.schedule sim ~delay:fig2_push_c_at (fun () -> Baselines.Ez_segway.push ez plan_c);
  Sim.schedule sim ~delay:fig2_push_b_at (fun () -> Baselines.Ez_segway.push ez plan_b);
  let sent = ref 0 in
  let agents = Baselines.Ez_segway.agents ez in
  let rec generator () =
    if Sim.now sim < fig2_horizon then begin
      Baselines.Agent.inject_data agents.(0)
        { Wire.d_flow_id = flow_id; seq = !sent; ttl = fig2_ttl; origin = 0; dst = 4; tag = 0; d_ts = 0 };
      incr sent;
      Sim.schedule sim ~delay:fig2_packet_interval_ms generator
    end
  in
  generator ();
  let _ = Sim.run ~until:(fig2_horizon +. 500.0) sim in
  fig2_summarize ~system:"ez-Segway" ~sent:!sent ~v1:!v1 ~v4:!v4

(* Both systems run the §4.1 scenario with seed 1. *)
let run_fig2 () =
  let seed = 1 in
  [ fig2_p4update ~seed; fig2_ez ~seed ]

(* ------------------------------------------------------------------ *)
(* Fig. 4                                                               *)
(* ------------------------------------------------------------------ *)

type fig4_result = {
  f4_p4update : float list;
  f4_ez : float list;
  f4_speedup : float;
}

(* U2: complex update with a backward segment; U3: the simple update the
   controller actually wants. *)
let fig4_v1 = [ 0; 2; 3; 5 ]
let fig4_u2 = [ 0; 1; 3; 2; 4; 5 ]
let fig4_u3 = [ 0; 2; 4; 5 ]
let fig4_gap_ms = 5.0

let fig4_config = { Netsim.default_config with rule_update_mean_ms = Some 100.0 }

let fig4_p4u_run ~seed =
  let w = World.make ~seed ~config:fig4_config (Topo.Topologies.six_node ()) in
  let sim = w.World.sim and controller = w.World.controller in
  let flow = World.install_flow w ~src:0 ~dst:5 ~size:100 ~path:fig4_v1 in
  let _v2 =
    P4update.Controller.update_flow controller ~flow_id:flow.flow_id ~new_path:fig4_u2
      ~update_type:Wire.Dl ()
  in
  let v3 = ref 0 in
  Sim.schedule sim ~delay:fig4_gap_ms (fun () ->
      v3 :=
        P4update.Controller.update_flow controller ~flow_id:flow.flow_id ~new_path:fig4_u3
          ~update_type:Wire.Sl ());
  let _ = Sim.run sim in
  match P4update.Controller.completion_time controller ~flow_id:flow.flow_id ~version:!v3 with
  | Some t -> t
  | None -> failwith "fig4: P4Update did not complete U3"

let fig4_ez_run ~seed =
  let sim = Sim.create ~seed () in
  let net = Netsim.create ~config:fig4_config sim (Topo.Topologies.six_node ()) in
  let ez = Baselines.Ez_segway.create net ~congestion:false in
  let flow_id = Baselines.Ez_segway.register_flow ez ~src:0 ~dst:5 ~size:100 ~path:fig4_v1 in
  (* ez-Segway must wait for U2 to finish before it can deploy U3 (§4.2). *)
  let u3_done = ref None in
  let phase = ref `U2 in
  Netsim.set_controller net (fun ~from:_ _ ->
      match !phase with
      | `U2 ->
        phase := `U3;
        Baselines.Ez_segway.schedule_updates ez
          [ { Baselines.Ez_segway.ur_flow = flow_id; ur_size = 100; ur_old_path = fig4_u2;
              ur_new_path = fig4_u3 } ]
      | `U3 -> if !u3_done = None then u3_done := Some (Sim.now sim));
  Baselines.Ez_segway.schedule_updates ez
    [ { Baselines.Ez_segway.ur_flow = flow_id; ur_size = 100; ur_old_path = fig4_v1;
        ur_new_path = fig4_u2 } ];
  let _ = Sim.run sim in
  match !u3_done with
  | Some t -> t
  | None -> failwith "fig4: ez-Segway did not complete U3"

let run_fig4 ~runs =
  let seeds = List.init runs (fun i -> 100 + i) in
  let f4_p4update = List.map (fun seed -> fig4_p4u_run ~seed) seeds in
  let f4_ez = List.map (fun seed -> fig4_ez_run ~seed) seeds in
  { f4_p4update; f4_ez; f4_speedup = Stats.mean f4_ez /. Stats.mean f4_p4update }

(* ------------------------------------------------------------------ *)
(* Fig. 7                                                               *)
(* ------------------------------------------------------------------ *)

type fig7_scenario = {
  f7_id : string;
  f7_title : string;
  f7_setup : Scenarios.setup;
}

(* Every Fig. 7 sample set runs seeds 1000, 1001, ... *)
let fig7_seed = 1000

let fig7_scenarios () =
  let single = Scenarios.single and multi = Scenarios.multi ~headroom:1.25 in
  [
    { f7_id = "7a"; f7_title = "Synthetic (Fig. 1) - single flow";
      f7_setup = single Topo.Topologies.fig1 };
    { f7_id = "7b"; f7_title = "Fat-tree (K=4) - multiple flows";
      f7_setup = multi (fun () -> Topo.Topologies.fat_tree ()) };
    { f7_id = "7c"; f7_title = "B4 - single flow"; f7_setup = single Topo.Topologies.b4 };
    { f7_id = "7d"; f7_title = "B4 - multiple flows"; f7_setup = multi Topo.Topologies.b4 };
    { f7_id = "7e"; f7_title = "Internet2 - single flow";
      f7_setup = single Topo.Topologies.internet2 };
    { f7_id = "7f"; f7_title = "Internet2 - multiple flows";
      f7_setup = multi Topo.Topologies.internet2 };
  ]

type fig7_result = {
  f7_scenario : fig7_scenario;
  f7_samples : (Scenarios.system * float list) list;
}

let run_fig7 ~runs scenario =
  {
    f7_scenario = scenario;
    f7_samples =
      List.map
        (fun s -> (s, Scenarios.sample ~seed:fig7_seed ~runs scenario.f7_setup s))
        Scenarios.all_systems;
  }

(* ------------------------------------------------------------------ *)
(* Phase breakdown - a traced fig7-style run explains its total         *)
(* ------------------------------------------------------------------ *)

type phase_result = {
  pb_scenario : fig7_scenario;
  pb_system : Scenarios.system;
  pb_completion_ms : float;
  pb_rows : Traced.phase_row list;
}

(* The breakdown traces the first Fig. 7 sample, seed 1000. *)
let run_phase_breakdown scenario system =
  let r = Traced.run ~seed:fig7_seed scenario.f7_setup system in
  {
    pb_scenario = scenario;
    pb_system = system;
    pb_completion_ms = r.Traced.tr_completion_ms;
    pb_rows = r.Traced.tr_phases;
  }

let render_phase_breakdown r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Fig. %s - %s (%s, seed %d): where the completion time goes (ms)\n"
       r.pb_scenario.f7_id r.pb_scenario.f7_title
       (Scenarios.system_name r.pb_system) fig7_seed);
  (match r.pb_rows with
  | [] ->
    Buffer.add_string buf
      "  no per-update span tree (baseline systems are not instrumented)\n"
  | rows -> Buffer.add_string buf (Traced.render_phases rows));
  Buffer.add_string buf
    (Printf.sprintf "  end-to-end completion: %.2f ms%s\n" r.pb_completion_ms
       (match r.pb_scenario.f7_setup.Scenarios.flows with
        | Scenarios.Multi _ -> " (updates overlap; rows are per flow)"
        | Scenarios.Single -> ""));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fig. 8                                                               *)
(* ------------------------------------------------------------------ *)

type fig8_row = {
  f8_topology : string;
  f8_nodes : int;
  f8_edges : int;
  f8_p4u_ms : float;
  f8_ez_ms : float;
  f8_ratio : float;
}

(* Random (shortest, 2nd-shortest) update pairs for the preparation
   benchmark. *)
let random_updates rng graph ~count =
  let n = Topo.Graph.node_count graph in
  let rec draw acc remaining guard =
    if remaining = 0 || guard > count * 20 then List.rev acc
    else
      let src = Random.State.int rng n in
      let dst = Random.State.int rng n in
      if src = dst then draw acc remaining (guard + 1)
      else
        match Topo.Graph.k_shortest_paths graph ~src ~dst ~k:2 with
        | [ old_path; new_path ] ->
          draw ((old_path, new_path) :: acc) (remaining - 1) (guard + 1)
        | _ -> draw acc remaining (guard + 1)
  in
  draw [] count 0

let ez_request (old_path, new_path) =
  let src = List.hd old_path and dst = List.nth old_path (List.length old_path - 1) in
  {
    Baselines.Ez_segway.ur_flow = Topo.Traffic.flow_id_of_pair ~src ~dst land (Wire.flow_space - 1);
    ur_size = 100;
    ur_old_path = old_path;
    ur_new_path = new_path;
  }

(* [Sys.time]'s granularity is coarse; repeat the measured body enough
   times for totals well above it and report the per-batch average.
   Untimed passes first keep the first topology from being timed cold;
   a single pass was too few (EXPERIMENTS, Fig. 8b). *)
let fig8_reps = 50
let fig8_warmup = 10

let time_it f =
  for _ = 1 to fig8_warmup do
    f ()
  done;
  let t0 = Sys.time () in
  for _ = 1 to fig8_reps do
    f ()
  done;
  (Sys.time () -. t0) *. 1000.0 /. float_of_int fig8_reps

let run_fig8 ~iterations ~congestion =
  List.map
    (fun topo ->
      let graph = topo.Topo.Topologies.graph in
      let sim = Sim.create ~seed:5 () in
      let net = Netsim.create sim topo in
      let rng = Random.State.make [| 42 |] in
      let updates = random_updates rng graph ~count:iterations in
      let requests = List.map ez_request updates in
      (* P4Update's preparation is the controller's: a DL update (labels,
         segments and roles) of a stand-in flow from each old path.
         Congestion freedom adds nothing — it is resolved in the data
         plane (§7.4), which is the entire point of Fig. 8b. *)
      let ctl = P4update.Controller.create net in
      ignore (P4update.Controller.register_flow ctl ~flow_id:0 ~src:0 ~dst:0 ~size:100 ~path:[]);
      let p4u_ms =
        time_it (fun () ->
            List.iter
              (fun (old_path, new_path) ->
                ignore
                  (P4update.Controller.prepare ctl ~flow_id:0 ~new_path
                     ~assume_old_path:old_path ~update_type:Wire.Dl ()))
              updates)
      in
      let ez_ms =
        if congestion then begin
          (* ez-Segway resolves inter-flow dependencies centrally, so every
             arriving update forces a recomputation of the global
             dependency graph over all standing flows; P4Update resolves
             them in the data plane and only prepares the one flow. *)
          let standing =
            let wl_rng = Random.State.make [| 77 |] in
            let flows = Topo.Traffic.multi_flow_workload wl_rng graph in
            List.map
              (fun (f : Topo.Traffic.flow) ->
                {
                  Baselines.Ez_segway.ur_flow = f.flow_id;
                  ur_size = max 1 (int_of_float (f.size *. 100.0));
                  ur_old_path = f.old_path;
                  ur_new_path = f.new_path;
                })
              flows
          in
          time_it (fun () ->
              List.iter
                (fun r ->
                  ignore
                    (Baselines.Ez_segway.prepare net ~congestion:true (r :: standing)))
                requests)
        end
        else
          time_it (fun () ->
              List.iter
                (fun r -> ignore (Baselines.Ez_segway.prepare net ~congestion:false [ r ]))
                requests)
      in
      {
        f8_topology = topo.Topo.Topologies.name;
        f8_nodes = Topo.Graph.node_count graph;
        f8_edges = Topo.Graph.edge_count graph;
        f8_p4u_ms = p4u_ms;
        f8_ez_ms = ez_ms;
        f8_ratio = (if ez_ms > 0.0 then p4u_ms /. ez_ms else nan);
      })
    (Topo.Topologies.fig8_set ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let render_fig2 results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Fig. 2 - inconsistent updates ((c) deployed while (b) is delayed):\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-12s sent=%d  v1: %d arrivals (%d seqs duplicated, worst %dx)  v4: %d arrivals, \
            %d lost\n"
           r.f2_system r.f2_sent (List.length r.f2_v1_arrivals) r.f2_duplicated r.f2_max_copies
           (List.length r.f2_v4_arrivals) r.f2_lost))
    results;
  Buffer.add_string buf
    "  expectation: ez-Segway loops packets over v1,v2,v3 (~21 copies, TTL 64) and loses them\n\
    \  at v4; P4Update rejects the premature update, no duplicates, no losses.\n";
  Buffer.contents buf

let render_fig4 r =
  Printf.sprintf
    "Fig. 4 - two sequential updates (skip-ahead):\n  %s\n  %s\n  speedup (mean ez / mean \
     P4Update): %.2fx   (paper: ~4x)\n%s"
    (Stats.summary "P4Update" r.f4_p4update)
    (Stats.summary "ez-Segway" r.f4_ez)
    r.f4_speedup
    (Stats.ascii_cdf
       ~series:[ ("P4Update", r.f4_p4update); ("ez-Segway", r.f4_ez) ]
       ())

let render_fig7 r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Fig. %s - %s:\n" r.f7_scenario.f7_id r.f7_scenario.f7_title);
  List.iter
    (fun (system, samples) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s\n" (Stats.summary (Scenarios.system_name system) samples)))
    r.f7_samples;
  let p4u = List.assoc Scenarios.P4u r.f7_samples in
  let ez = List.assoc Scenarios.Ez r.f7_samples in
  Buffer.add_string buf
    (Printf.sprintf "  P4Update vs ez-Segway (mean): %+.1f%%\n"
       (100.0 *. ((Stats.mean p4u /. Stats.mean ez) -. 1.0)));
  Buffer.add_string buf
    (Stats.ascii_cdf
       ~series:
         (List.map (fun (s, xs) -> (Scenarios.system_name s, xs)) r.f7_samples)
       ());
  Buffer.contents buf

let render_fig8 ~congestion rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Fig. 8%s - control-plane preparation runtime ratio (P4Update / ez-Segway)%s:\n"
       (if congestion then "b" else "a")
       (if congestion then " with congestion freedom" else ""));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-10s (%d, %d)  p4update=%8.2f ms  ez=%10.2f ms  ratio=%.4f\n"
           r.f8_topology r.f8_nodes r.f8_edges r.f8_p4u_ms r.f8_ez_ms r.f8_ratio))
    rows;
  Buffer.add_string buf
    (if congestion then "  expectation: ratio 0.002-0.02 (50-500x, larger networks win more)\n"
     else "  expectation: ratio around 0.7\n");
  Buffer.contents buf
