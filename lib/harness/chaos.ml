module Sim = Dessim.Sim
module Graph = Topo.Graph
module Topologies = Topo.Topologies

type scenario = Fig1 | B4 | Fat_tree

let scenario_name = function Fig1 -> "fig1" | B4 -> "b4" | Fat_tree -> "fat-tree"

let scenario_of_string = function
  | "fig1" -> Some Fig1
  | "b4" -> Some B4
  | "fat-tree" | "fattree" -> Some Fat_tree
  | _ -> None

let all_scenarios = [ Fig1; B4; Fat_tree ]

let topo_of = function
  | Fig1 -> Topologies.fig1 ()
  | B4 -> Topologies.b4 ()
  | Fat_tree -> Topologies.fat_tree ~k:4 ()

type violation = Invariants.violation = {
  v_time : float;
  v_flow : int;
  v_what : string;
}

type report = {
  r_scenario : scenario;
  r_seed : int;
  r_flows : int;
  r_converged : int;
  r_baseline_converged : int;
  r_violations : violation list;
  r_retransmissions : int;
  r_reroutes : int;
  r_resyncs : int;
  r_aborts : int;
  r_give_ups : int;
  r_alarms : int;
  r_dropped_by_fault : int;
  r_dropped_by_failure : int;
  r_element_failures : int;
  r_completion_ms : float option;
  r_baseline_completion_ms : float option;
  r_trace_hash : int;
  r_traffic : Traffic.summary option;
}

let ok r = r.r_violations = [] && r.r_converged = r.r_flows

(* ------------------------------------------------------------------ *)
(* Workload: a few flows with an old path installed and a planned update
   to an alternative path, all drawn from the simulation RNG so the run
   is a pure function of (scenario, seed).                              *)
(* ------------------------------------------------------------------ *)

type planned = { pl_src : int; pl_dst : int; pl_old : int list; pl_new : int list }

let alt_path g ~old_path ~src ~dst =
  let candidates = Graph.k_shortest_paths g ~src ~dst ~k:4 in
  match List.find_opt (fun p -> p <> old_path) candidates with
  | Some p -> p
  | None -> old_path

let draw_flows sim topo n =
  let g = topo.Topologies.graph in
  let nodes = Graph.node_count g in
  let seen_ids = Hashtbl.create 8 in
  let fresh src dst =
    let id = Topo.Traffic.flow_id_of_pair ~src ~dst land (P4update.Wire.flow_space - 1) in
    if Hashtbl.mem seen_ids id then false
    else begin
      Hashtbl.replace seen_ids id ();
      true
    end
  in
  let fixed =
    match topo.Topologies.name with
    | "fig1" ->
      let old_path = Topologies.fig1_old_path in
      let src = List.hd old_path and dst = List.nth old_path (List.length old_path - 1) in
      ignore (fresh src dst);
      [ { pl_src = src; pl_dst = dst; pl_old = old_path; pl_new = Topologies.fig1_new_path } ]
    | _ -> []
  in
  let rec draw acc k attempts =
    if k = 0 || attempts > 200 then List.rev acc
    else
      let src = Sim.uniform_int sim ~bound:nodes in
      let dst = Sim.uniform_int sim ~bound:nodes in
      if src = dst || not (fresh src dst) then draw acc k (attempts + 1)
      else
        match Graph.shortest_path g ~src ~dst with
        | None -> draw acc k (attempts + 1)
        | Some old_path ->
          let pl_new = alt_path g ~old_path ~src ~dst in
          draw ({ pl_src = src; pl_dst = dst; pl_old = old_path; pl_new } :: acc)
            (k - 1) attempts
  in
  fixed @ draw [] (max 0 (n - List.length fixed)) 0

(* ------------------------------------------------------------------ *)
(* Fault schedule                                                       *)
(* ------------------------------------------------------------------ *)

(* [Corrupt] models a bit flip on the wire.  Control-typed frames (UIM on
   the control channel, UNM/CLN on data links) carry protocol state, and a
   real switch discards frames whose FCS fails — so a corrupted control
   frame is a drop, not a delivery of garbage.  Data-typed frames get the
   actual bit flip (harmless to forwarding state).  The kind is read in
   place: no record is decoded. *)
let is_control_frame bytes = Option.is_some (P4update.Wire.control_kind_of_bytes bytes)

let draw_verdict sim ~downgrade_corrupt =
  let x = Sim.uniform sim ~bound:1.0 in
  if x < 0.40 then Netsim.Drop
  else if x < 0.70 then Netsim.Delay (5.0 +. Sim.uniform sim ~bound:45.0)
  else if x < 0.85 then if downgrade_corrupt then Netsim.Drop else Netsim.Corrupt
  else Netsim.Duplicate

(* A shut window or a class at probability 0 draws nothing, so the RNG
   stream depends only on the classes a run faults.  Every
   control-channel frame is control-typed. *)
let install_faults (w : World.t) (f : Run_config.faults) ~open_ =
  let sim = w.World.sim in
  Array.iter
    (fun sw -> P4update.Switch.enable_watchdog sw ~timeout_ms:Run_config.default_watchdog_ms)
    w.World.switches;
  (match f.recovery with
   | No_recovery -> ()
   | Retries -> P4update.Controller.enable_recovery w.World.controller
   | Deadline d -> P4update.Controller.enable_recovery ~deadline_ms:d w.World.controller);
  let fault p ~control =
    if p > 0.0 && Sim.uniform sim ~bound:1.0 < p then
      draw_verdict sim ~downgrade_corrupt:control
    else Netsim.Deliver
  in
  if f.data_link > 0.0 || f.control_link > 0.0 then
    Netsim.set_data_fault w.World.net (fun ~from:_ ~to_:_ bytes ->
        if not (open_ ()) then Netsim.Deliver
        else if is_control_frame bytes then fault f.control_link ~control:true
        else fault f.data_link ~control:false);
  if f.channel > 0.0 then
    Netsim.set_control_fault w.World.net (fun ~dir:_ _ ->
        if open_ () then fault f.channel ~control:true else Netsim.Deliver)

(* 0 .. max element failures, each restored well inside the fault window
   so convergence is expected once the window closes. *)
let schedule_element_failures ?(start = 0.0) (w : World.t) ~window_ms ~max_failures =
  let sim = w.World.sim in
  let net = w.World.net in
  let topo = Netsim.topology net in
  let g = topo.Topologies.graph in
  let nodes = Graph.node_count g in
  let edges = Array.of_list (Graph.edges g) in
  let count =
    if max_failures <= 0 || window_ms < 1500.0 then 0
    else Sim.uniform_int sim ~bound:(max_failures + 1)
  in
  for _ = 1 to count do
    let fail_at =
      start +. 200.0 +. Sim.uniform sim ~bound:(window_ms -. 1500.0)
    in
    let restore_at = fail_at +. 300.0 +. Sim.uniform sim ~bound:700.0 in
    if Array.length edges > 0 && Sim.uniform_int sim ~bound:2 = 0 then begin
      let e = edges.(Sim.uniform_int sim ~bound:(Array.length edges)) in
      Netsim.fail_link net ~u:e.Graph.u ~v:e.Graph.v ~at:fail_at;
      Netsim.restore_link net ~u:e.Graph.u ~v:e.Graph.v ~at:restore_at
    end
    else begin
      let rec pick tries =
        let n = Sim.uniform_int sim ~bound:nodes in
        if n = topo.Topologies.controller && tries < 50 then pick (tries + 1) else n
      in
      let node = pick 0 in
      Netsim.fail_node net ~node ~at:fail_at;
      Netsim.restore_node net ~node ~at:restore_at
    end
  done;
  count

(* ------------------------------------------------------------------ *)
(* Invariant probes (Thm. 1-4) — shared implementation in Invariants.   *)
(* ------------------------------------------------------------------ *)

let probe_interval_ms = 500.0

let install_probes (w : World.t) ~horizon_ms monitor (flows : P4update.Controller.flow list) =
  let sim = w.World.sim in
  let rec arm time =
    if time <= horizon_ms then
      Sim.schedule_at sim ~time (fun () ->
          Invariants.check_structural monitor flows;
          arm (time +. probe_interval_ms))
  in
  arm probe_interval_ms

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

let hash_combine h x = ((h * 1000003) lxor x) land 0x3FFFFFFF

let run_one ?traffic ?trace ~horizon_ms ~scenario ~seed (faults : Run_config.faults) =
  let topo = topo_of scenario in
  let w = World.make ~seed ?trace topo in
  let trace_hash = ref 0x1505 in
  Netsim.on_delivery w.World.net (fun time node port bytes ->
      trace_hash :=
        hash_combine !trace_hash
          (Hashtbl.hash (int_of_float (time *. 1000.0), node, port, Bytes.to_string bytes)));
  (* The fault hooks draw only on frames, and none is sent before the run
     starts.  Workload first, failure schedule second: a fault-free
     baseline run of the same seed draws the identical workload. *)
  install_faults w faults ~open_:(fun () -> Sim.now w.World.sim < faults.window_ms);
  let planned = draw_flows w.World.sim topo 3 in
  let flows =
    List.map
      (fun pl ->
        World.install_flow w ~src:pl.pl_src ~dst:pl.pl_dst ~size:100 ~path:pl.pl_old)
      planned
  in
  (* Probe traffic (opt-in) attaches after the workload's flows exist so
     the auditor seeds its version history from them; its RNG draws for
     injection gaps come later in event order than the workload/fault
     draws above, so runs without traffic keep their exact schedule. *)
  let tr = Option.map (fun workload -> Traffic.attach ~workload w) traffic in
  List.iter2
    (fun pl (f : P4update.Controller.flow) ->
      let at = 100.0 +. Sim.uniform w.World.sim ~bound:(faults.window_ms /. 2.0) in
      Sim.schedule_at w.World.sim ~time:at (fun () ->
          ignore
            (P4update.Controller.update_flow w.World.controller
               ~flow_id:f.P4update.Controller.flow_id ~new_path:pl.pl_new ())))
    planned flows;
  Option.iter Traffic.start tr;
  let element_failures =
    schedule_element_failures w ~window_ms:faults.window_ms
      ~max_failures:faults.element_failures
  in
  let monitor = Invariants.create w in
  install_probes w ~horizon_ms monitor flows;
  ignore (World.run ~until:horizon_ms w);
  let converged, completion =
    List.fold_left
      (fun (n, latest) (f : P4update.Controller.flow) ->
        let structurally_ok =
          match
            Fwdcheck.trace w.World.net w.World.switches
              ~flow_id:f.P4update.Controller.flow_id ~src:f.P4update.Controller.src
          with
          | Fwdcheck.Reaches_egress path -> path = f.P4update.Controller.path
          | _ -> false
        in
        let t =
          P4update.Controller.completion_time w.World.controller
            ~flow_id:f.P4update.Controller.flow_id ~version:f.P4update.Controller.version
        in
        if structurally_ok then
          ( n + 1,
            match (latest, t) with
            | Some a, Some b -> Some (Float.max a b)
            | None, t -> t
            | t, None -> t )
        else (n, latest))
      (0, None) flows
  in
  let stats = Netsim.counters w.World.net in
  let rstats = P4update.Controller.recovery_stats w.World.controller in
  let get f = match rstats with Some s -> f s | None -> 0 in
  {
    r_scenario = scenario;
    r_seed = seed;
    r_flows = List.length flows;
    r_converged = converged;
    r_baseline_converged = 0;
    r_violations = Invariants.violations monitor;
    r_retransmissions = get (fun s -> s.P4update.Controller.retransmissions);
    r_reroutes = get (fun s -> s.P4update.Controller.reroutes);
    r_resyncs = get (fun s -> s.P4update.Controller.resyncs);
    r_aborts = get (fun s -> s.P4update.Controller.aborts);
    r_give_ups = get (fun s -> s.P4update.Controller.give_ups);
    r_alarms = P4update.Controller.alarm_count w.World.controller;
    r_dropped_by_fault = stats.Netsim.dropped_by_fault;
    r_dropped_by_failure = stats.Netsim.dropped_by_failure;
    r_element_failures = element_failures;
    r_completion_ms = completion;
    r_baseline_completion_ms = None;
    r_trace_hash = !trace_hash;
    r_traffic = Option.map (fun t -> Traffic.finalize t) tr;
  }

let run ?traffic ?trace ?(horizon_ms = 120_000.0) ~faults ~seed scenario =
  (* Only the degraded run is traced: the fault-free baseline would overlay
     a second span tree at the same timestamps.  Probe traffic likewise
     rides the degraded run only — the baseline's job is the workload's
     fault-free convergence reference, not a second packet audit. *)
  let faulty = run_one ?traffic ?trace ~horizon_ms ~scenario ~seed faults in
  let baseline = run_one ~horizon_ms ~scenario ~seed (Run_config.fault_free faults) in
  {
    faulty with
    r_baseline_converged = baseline.r_converged;
    r_baseline_completion_ms = baseline.r_completion_ms;
  }

let report_line r =
  let verdict = if ok r then "ok" else "FAIL" in
  let completion = function
    | Some t -> Printf.sprintf "%.0fms" t
    | None -> "never"
  in
  let traffic =
    match r.r_traffic with
    | None -> ""
    | Some ts ->
      Printf.sprintf ", traffic %d/%d delivered %d audit-violations"
        ts.Traffic.ts_delivered ts.Traffic.ts_injected (Traffic.violations ts)
  in
  Printf.sprintf
    "chaos %-8s seed=%-3d %s: %d/%d converged (baseline %d/%d, %s vs %s), %d violations, \
     retx=%d reroutes=%d resyncs=%d aborts=%d give-ups=%d alarms=%d, drops fault=%d \
     failure=%d, failures=%d, hash=%08x%s"
    (scenario_name r.r_scenario) r.r_seed verdict r.r_converged r.r_flows
    r.r_baseline_converged r.r_flows
    (completion r.r_completion_ms)
    (completion r.r_baseline_completion_ms)
    (List.length r.r_violations) r.r_retransmissions r.r_reroutes r.r_resyncs r.r_aborts
    r.r_give_ups r.r_alarms r.r_dropped_by_fault r.r_dropped_by_failure
    r.r_element_failures r.r_trace_hash traffic
