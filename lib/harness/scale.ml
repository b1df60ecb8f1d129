(* Scale engine: many-concurrent-update workloads on a Topology Zoo WAN.

   The engine admits a population of flows on a WAN topology, then drives
   a Poisson arrival process of update bursts: each burst picks a set of
   distinct active flows, rotates every one onto its next precomputed
   alternative path, prepares the whole burst through
   [Controller.prepare_batch] (one traversal-state build shared across the
   burst) and pushes the prepared updates into the simulated data plane.
   A fraction of bursts additionally churns the flow population (one flow
   retires, a fresh src/dst pair is admitted).  Completion times are
   captured with an [on_report] hook keyed by (flow, version) — O(1) per
   UFM instead of scanning the report log — and Thm. 1–4 invariant probes
   ([Invariants.check_structural]) run on a sampled subset of bursts.

   Everything random is drawn from the world's simulation RNG, so a
   [Run_config.seed] fully determines the workload, the event schedule
   and therefore every reported number except the wall-clock-derived
   throughputs. *)

module Sim = Dessim.Sim
module Graph = Topo.Graph

type workload = {
  wl_updates : int;          (* stop admitting bursts after this many updates *)
  wl_flows : int;            (* size of the concurrent flow population *)
  wl_arrival_mean_ms : float;(* Poisson mean between bursts *)
  wl_burst : int;            (* updates per burst (distinct flows) *)
  wl_churn : float;          (* per-burst probability of one flow churning *)
  wl_probe_every : int;      (* invariant probe every n bursts; 0 disables *)
  wl_flow_size : int;        (* per-flow size (centi-units); small keeps
                                capacity non-binding at this density *)
  wl_horizon_ms : float;     (* simulation bound *)
}

let default_workload =
  {
    wl_updates = 1000;
    wl_flows = 200;
    wl_arrival_mean_ms = 5.0;
    wl_burst = 8;
    wl_churn = 0.05;
    wl_probe_every = 25;
    wl_flow_size = 1;
    wl_horizon_ms = 300_000.0;
  }

type result = {
  sr_topology : string;
  sr_updates_pushed : int;
  sr_updates_completed : int;
  sr_bursts : int;
  sr_underfilled : int;           (* bursts short of wl_burst distinct flows *)
  sr_churned : int;
  sr_probes : int;
  sr_completion_ms : float list;  (* one sample per completed update *)
  sr_p50_ms : float;
  sr_p99_ms : float;
  sr_sim_ms : float;              (* simulated time at drain *)
  sr_events : int;
  sr_events_per_s : float;        (* kernel dispatch rate (wall clock) *)
  sr_updates_per_s : float;       (* completed updates per wall second *)
  sr_prep_per_s : float;          (* preparation throughput (see below) *)
  sr_violations : Invariants.violation list;
  sr_series : Obs.Timeseries.window list; (* rolling SLO windows *)
}

(* Observation hooks for layers that ride along with the workload (the
   traffic engine).  The factory runs once the flow population is
   admitted — enumerate [World.flows] there for the initial state — and
   the returned hooks fire as the run unfolds. *)
type hooks = {
  h_admitted : flow_id:int -> unit;  (* churn admitted a fresh flow *)
  h_pushed : flow_id:int -> version:int -> unit;
      (* an update was pushed; the controller's flow record already shows
         the new version/path *)
}

let no_hooks = { h_admitted = (fun ~flow_id:_ -> ()); h_pushed = (fun ~flow_id:_ ~version:_ -> ()) }

(* ---- flow population ------------------------------------------------- *)

(* Per-flow rotation state: the alternative paths and which one is live. *)
type slot = { mutable flow_id : int; mutable paths : int list array; mutable cur : int }

(* At least two distinct paths, or the pair is rejected: a single-path
   flow would "rotate" onto its own path, and counting those no-op
   updates would inflate updates/s with work the data plane never sees. *)
let alt_paths g ~src ~dst =
  match Graph.k_shortest_paths g ~src ~dst ~k:3 with
  | [] | [ _ ] -> None
  | paths -> Some (Array.of_list paths)

(* Draw a fresh (src, dst) pair whose flow id is not yet taken and which
   has at least one path.  WANs here are connected, so this terminates
   quickly; the id check matters because ids live in a masked space. *)
let draw_pair (w : World.t) g ~n =
  let rec go tries =
    if tries > 10_000 then failwith "Scale.draw_pair: no fresh pair found";
    let src = Sim.uniform_int w.World.sim ~bound:n in
    let dst = Sim.uniform_int w.World.sim ~bound:n in
    if src = dst then go (tries + 1)
    else
      match World.flow_of_pair w ~src ~dst with
      | Some _ -> go (tries + 1)
      | None -> (
        match alt_paths g ~src ~dst with
        | Some paths -> (src, dst, paths)
        | None -> go (tries + 1))
  in
  go 0

let admit w g ~n ~size =
  let src, dst, paths = draw_pair w g ~n in
  let flow = World.install_flow w ~src ~dst ~size ~path:paths.(0) in
  { flow_id = flow.P4update.Controller.flow_id; paths; cur = 0 }

(* ---- preparation re-timing ------------------------------------------- *)

(* Time [prepare_batch] over a request slice without mutating the world
   it measures: a throwaway single-controller [World] is built on the
   same topology, the slice's flows are re-registered into it at their
   current paths, and the timing loop hammers the clone's controller.
   The caller's controller state (fingerprint) is untouched. *)
let retime_slice (w : World.t) topo requests =
  let clone = World.make ~seed:0 topo in
  List.iter
    (fun (flow_id, _) ->
      match World.find_flow w ~flow_id with
      | Some f ->
        ignore
          (World.install_flow clone ~flow_id:f.P4update.Controller.flow_id
             ~src:f.P4update.Controller.src
             ~dst:f.P4update.Controller.dst ~size:f.P4update.Controller.size
             ~path:f.P4update.Controller.path)
      | None -> ())
    requests;
  let batch = List.length requests in
  if batch = 0 then 0.0
  else begin
    let reps = ref 0 in
    let started = Dessim.Wallclock.now_s () in
    let elapsed () = Dessim.Wallclock.elapsed_s ~since:started in
    while elapsed () < 0.2 do
      ignore (P4update.Controller.prepare_batch clone.World.controller requests);
      incr reps
    done;
    float_of_int (!reps * batch) /. elapsed ()
  end

(* At shards=1 this is the old whole-world re-time.  At shards>1 it is
   shard-aware: one throwaway clone per shard carrying only the Flow DB
   slice that shard owns (cloning every slice into every replica copied
   quadratically in shard count), each replica's prep loop timed in
   isolation, and the aggregate is the sum of per-replica rates — the
   sustained capacity of k controllers each running on its own machine.
   Clones are built sequentially in the calling domain (World.make sets
   the global trace clock). *)
let retime_prep (w : World.t) requests =
  let topo = Netsim.topology w.World.net in
  match w.World.partition with
  | None -> retime_slice w topo requests
  | Some pt ->
    let k = Control.Partition.domains pt in
    let per_shard = Array.make k [] in
    List.iter
      (fun ((flow_id, _) as req) ->
        match World.find_flow w ~flow_id with
        | Some f ->
          let d = Control.Partition.domain_of pt f.P4update.Controller.src in
          per_shard.(d) <- req :: per_shard.(d)
        | None -> ())
      requests;
    Array.fold_left
      (fun acc reqs -> acc +. retime_slice w topo (List.rev reqs))
      0.0 per_shard

(* ---- the engine ------------------------------------------------------ *)

(* Default SLO sampling window for the scale engine (simulated ms). *)
let default_tick_ms = 1000.0

let run ?(workload = default_workload) ?hooks (cfg : Run_config.t) topo =
  Observe.with_recorder cfg @@ fun _recorder ->
  let w =
    World.make ~seed:cfg.Run_config.seed ~shards:cfg.Run_config.shards topo
  in
  let g = topo.Topo.Topologies.graph in
  let n = Graph.node_count g in
  let wl = workload in
  if wl.wl_flows < 1 || wl.wl_burst < 1 then invalid_arg "Scale.run: empty workload";
  (* Intent mode: the population and every burst come from the compiled
     intent program instead of independently rotating slots.  The
     default (slot) path below is untouched so its pins stay stable. *)
  let ic =
    if cfg.Run_config.intent_churn then
      Some (Intent_churn.create ~profile:{ Intent_churn.default_profile with
                                           Intent_churn.ip_flows = wl.wl_flows } w)
    else None
  in
  (* Population: admitted one by one so the RNG draw order (and hence the
     whole run) is a pure function of the seed. *)
  let slots =
    match ic with
    | Some _ -> [||]
    | None -> Array.init wl.wl_flows (fun _ -> admit w g ~n ~size:wl.wl_flow_size)
  in
  (* Ride-along layers see the world only after the population exists. *)
  let hk = match hooks with None -> no_hooks | Some f -> f w in
  Option.iter
    (fun ic ->
      Intent_churn.set_on_install ic (fun ~flow_id -> hk.h_admitted ~flow_id))
    ic;
  let monitor = Invariants.create w in
  (* Completion capture: push time per (flow, version); the report hook
     turns the matching success UFM into one completion sample. *)
  let pending : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let completions = ref [] in
  let completed = ref 0 in
  let pushed = ref 0 in
  (* Rolling SLO windows: completion latency p50/p99, push/completion
     rates, in-flight updates and heap footprint per simulated second. *)
  let series =
    Observe.attach_series cfg w.World.sim ~default_tick_ms
      ~title:("p4update scale " ^ topo.Topo.Topologies.name)
      ~register:(fun ts ->
        Obs.Timeseries.dist ts "update_latency" ~unit_:"ms";
        Obs.Timeseries.rate ts "pushed" ~unit_:"updates/s" (fun () ->
            float_of_int !pushed);
        Obs.Timeseries.rate ts "completed" ~unit_:"updates/s" (fun () ->
            float_of_int !completed);
        Obs.Timeseries.gauge ts "in_flight" ~unit_:"updates" (fun () ->
            float_of_int (Hashtbl.length pending));
        Obs.Timeseries.gauge ts "heap" ~unit_:"events" (fun () ->
            float_of_int (Sim.pending w.World.sim)))
  in
  Control.Plane.on_report w.World.plane (fun r ->
      if r.P4update.Controller.r_status = P4update.Wire.ufm_success then begin
        let key = (r.P4update.Controller.r_flow, r.P4update.Controller.r_version) in
        match Hashtbl.find_opt pending key with
        | Some pushed ->
          Hashtbl.remove pending key;
          incr completed;
          let sample = r.P4update.Controller.r_time -. pushed in
          Obs.Timeseries.observe series "update_latency" sample;
          completions := sample :: !completions
        | None -> ()
      end);
  let bursts = ref 0 in
  let underfilled = ref 0 in
  let churned = ref 0 in
  let probes = ref 0 in
  let prep_s = ref 0.0 in
  let prepared_n = ref 0 in
  let push_prepared prepared =
    let now = Sim.now w.World.sim in
    List.iter
      (fun (p : P4update.Controller.prepared) ->
        Hashtbl.replace pending (p.P4update.Controller.p_flow, p.P4update.Controller.p_version) now;
        Control.Plane.push w.World.plane p;
        incr pushed;
        hk.h_pushed ~flow_id:p.P4update.Controller.p_flow
          ~version:p.P4update.Controller.p_version)
      prepared
  in
  (* One intent burst: drain/undrain or TE-sweep event, incrementally
     recompiled and lowered into one correlated batch.  The timing span
     covers compile + lowering + preparation — for intent workloads the
     recompile IS part of the preparation cost. *)
  let intent_burst ic =
    let started = Dessim.Wallclock.now_s () in
    let prepared = Intent_churn.burst ic in
    prep_s := !prep_s +. Dessim.Wallclock.elapsed_s ~since:started;
    prepared_n := !prepared_n + List.length prepared;
    if prepared = [] then incr underfilled;
    push_prepared prepared;
    incr bursts;
    if wl.wl_probe_every > 0 && !bursts mod wl.wl_probe_every = 0 then begin
      incr probes;
      Invariants.check_structural monitor (World.flows w)
    end
  in
  (* One arrival burst: pick [wl_burst] distinct slots, rotate each onto
     its next alternative path, prepare the whole batch at once, push. *)
  let slot_burst () =
    let remaining = wl.wl_updates - !pushed in
    let want = min wl.wl_burst remaining in
    let chosen = Hashtbl.create (2 * want) in
    let picked = ref [] in
    let tries = ref 0 in
    while Hashtbl.length chosen < want && !tries < 50 * want do
      incr tries;
      let i = Sim.uniform_int w.World.sim ~bound:wl.wl_flows in
      if not (Hashtbl.mem chosen i) then begin
        Hashtbl.add chosen i ();
        picked := i :: !picked
      end
    done;
    (* The distinct-flow pick can run out of tries on tiny populations;
       the burst is then clamped to what was picked, and recorded so a
       report reading "N bursts" cannot silently mean fewer updates. *)
    if Hashtbl.length chosen < want then incr underfilled;
    let requests =
      List.rev_map
        (fun i ->
          let s = slots.(i) in
          s.cur <- (s.cur + 1) mod Array.length s.paths;
          (s.flow_id, s.paths.(s.cur)))
        !picked
    in
    let started = Dessim.Wallclock.now_s () in
    let prepared = Control.Plane.prepare_batch w.World.plane requests in
    prep_s := !prep_s +. Dessim.Wallclock.elapsed_s ~since:started;
    prepared_n := !prepared_n + List.length prepared;
    push_prepared prepared;
    incr bursts;
    (* Flow churn: one randomly chosen slot retires (its flow keeps its
       installed final state, harmlessly) and a fresh pair is admitted. *)
    if wl.wl_churn > 0.0 && Sim.uniform w.World.sim ~bound:1.0 < wl.wl_churn then begin
      let i = Sim.uniform_int w.World.sim ~bound:wl.wl_flows in
      slots.(i) <- admit w g ~n ~size:wl.wl_flow_size;
      incr churned;
      hk.h_admitted ~flow_id:slots.(i).flow_id
    end;
    if wl.wl_probe_every > 0 && !bursts mod wl.wl_probe_every = 0 then begin
      incr probes;
      Invariants.check_structural monitor (World.flows w)
    end
  in
  let burst () = match ic with Some ic -> intent_burst ic | None -> slot_burst () in
  let rec arrival () =
    if !pushed < wl.wl_updates then begin
      burst ();
      let dt = Sim.exponential w.World.sim ~mean:wl.wl_arrival_mean_ms in
      Sim.schedule w.World.sim ~delay:dt arrival
    end
  in
  Sim.reset_stats w.World.sim;
  Sim.schedule w.World.sim ~delay:(Sim.exponential w.World.sim ~mean:wl.wl_arrival_mean_ms) arrival;
  ignore (World.run ~until:wl.wl_horizon_ms w);
  (* Final probe over the quiesced plane. *)
  if wl.wl_probe_every > 0 then begin
    incr probes;
    Invariants.check_structural monitor (World.flows w)
  end;
  let stats = Sim.stats w.World.sim in
  let samples = !completions in
  let p50 = Option.value ~default:0.0 (Stats.percentile_opt 50.0 samples) in
  let p99 = Option.value ~default:0.0 (Stats.percentile_opt 99.0 samples) in
  (* Preparation throughput: the in-run timing deltas are too coarse to
     divide by when each burst prepares in microseconds, so fall back to
     re-timing batch preparation.  The timing loop must not touch the
     live world — repeated [prepare_batch] calls against the post-run
     controller would grow its prepare cache and advance prepared
     versions purely for measurement — so it runs against a throwaway
     clone carrying the same flows ({!retime_prep}). *)
  let requests =
    match ic with
    | Some _ ->
      (* Intent mode has no rotation slots; re-time preparation over the
         live member flows at their current paths. *)
      List.map
        (fun (f : P4update.Controller.flow) ->
          (f.P4update.Controller.flow_id, f.P4update.Controller.path))
        (World.flows w)
    | None ->
      Array.to_list
        (Array.map
           (fun s -> (s.flow_id, s.paths.((s.cur + 1) mod Array.length s.paths)))
           slots)
  in
  let prep_per_s =
    if !prep_s > 0.01 then float_of_int !prepared_n /. !prep_s
    else retime_prep w requests
  in
  Observe.finish_series cfg w.World.sim series;
  {
    sr_topology = topo.Topo.Topologies.name;
    sr_updates_pushed = !pushed;
    sr_updates_completed = !completed;
    sr_bursts = !bursts;
    sr_underfilled = !underfilled;
    sr_churned =
      (match ic with
      | Some ic -> (Intent_churn.stats ic).Intent_churn.ic_intent_events
      | None -> !churned);
    sr_probes = !probes;
    sr_completion_ms = samples;
    sr_p50_ms = p50;
    sr_p99_ms = p99;
    sr_sim_ms = Sim.now w.World.sim;
    sr_events = stats.Sim.st_events;
    sr_events_per_s = stats.Sim.st_events_per_s;
    sr_updates_per_s =
      (if stats.Sim.st_wall_s > 0.0 then float_of_int !completed /. stats.Sim.st_wall_s
       else 0.0);
    sr_prep_per_s = prep_per_s;
    sr_violations = Invariants.violations monitor;
    sr_series = Obs.Timeseries.windows series;
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d/%d updates completed in %d bursts (%d underfilled, %.1f ms simulated)@,\
     completion p50 %.2f ms  p99 %.2f ms   churned %d  probes %d  violations %d@,\
     kernel: %d events, %.0f events/s   %.0f updates/s   prep %.0f updates/s@]"
    r.sr_topology r.sr_updates_completed r.sr_updates_pushed r.sr_bursts r.sr_underfilled
    r.sr_sim_ms r.sr_p50_ms r.sr_p99_ms r.sr_churned r.sr_probes
    (List.length r.sr_violations) r.sr_events r.sr_events_per_s r.sr_updates_per_s
    r.sr_prep_per_s
