(* Soak monitor: long-horizon graceful-degradation runs.

   A soak run composes the three existing stress dimensions on one world
   and keeps them running for hours of simulated time, organised in
   fixed-length cycles:

   - Scale-style churn: a constant flow population rotates onto
     alternative paths in Poisson update bursts; a few flows per cycle
     retire ([Controller.retire_flow]) and fresh pairs are admitted, so
     the Flow DB must return to its baseline size every cycle.
   - Chaos-style rolling faults: during a window at the start of each
     cycle, control-typed messages (UIM/UFM on the control channel,
     UNM/CLN riding the data plane) are dropped / delayed / duplicated
     with the shared {!Chaos.draw_verdict} distribution, and a few
     links/nodes fail and are restored.  Probe data packets are never
     faulted directly — any probe violation is the update plane's fault,
     not the fault injector's — but element failures do drop them, which
     is what the blackhole excuse below accounts for.
   - Traffic probes: one {!Traffic} engine audits a sustained probe
     burst per cycle against per-packet consistency, drained and folded
     into running totals at every cycle boundary so the flight table
     returns to empty between bursts.

   Faults plus bounded retries plus an operator deadline mean the §11
   recovery ladder runs end to end every cycle: retransmit, reroute,
   resync after node restarts, and — when a deadline passes — the abort
   path, whose withdraw/rollback must leave the plane consistent (the
   probes keep racing packets through it).

   Between cycles the monitor takes leak readings: the event heap, the
   Flow DB and the traffic flight table must return to baseline, and at
   the end no trace anchors may be outstanding and no pushed update may
   be left unresolved (neither completed, superseded, retired nor
   aborted = stuck).  Everything random draws from the world's sim RNG,
   so a [Run_config.seed] fully determines the run. *)

module Sim = Dessim.Sim
module Graph = Topo.Graph
module Topologies = Topo.Topologies

type config = {
  sk_cycles : int;
  sk_cycle_ms : float;          (* cycle length; faults at the start, drain at the end *)
  sk_population : int;          (* constant concurrent-flow population *)
  sk_updates_per_cycle : int;
  sk_burst : int;               (* updates per arrival burst *)
  sk_arrival_mean_ms : float;   (* Poisson mean between bursts *)
  sk_churn_per_cycle : int;     (* flows retired + re-admitted per cycle *)
  sk_control_fault_prob : float;(* per-message fault probability in the window *)
  sk_fault_window_ms : float;   (* fault window at the start of each cycle *)
  sk_element_failures : int;    (* max scheduled link/node failures per cycle *)
  sk_probe_gap_ms : float;      (* per-flow mean probe gap *)
  sk_probe_window_ms : float;   (* probe injection window per cycle *)
  sk_flow_size : int;
  sk_watchdog_ms : float;
  sk_deadline_ms : float option;(* operator deadline -> abort (None: retries only) *)
  sk_settle_tail_ms : float;    (* extra horizon after the last cycle *)
}

(* ~1.28M probe packets expected: 8 cycles x 40 flows x 4 s windows at a
   1 ms mean gap.  The deadline is short enough that every update pushed
   into a fault window resolves (success or abort) within its cycle or
   the next, and the settle tail covers the stragglers of the last one. *)
let default_config =
  {
    sk_cycles = 8;
    sk_cycle_ms = 6000.0;
    sk_population = 40;
    sk_updates_per_cycle = 48;
    sk_burst = 4;
    sk_arrival_mean_ms = 40.0;
    sk_churn_per_cycle = 2;
    sk_control_fault_prob = 0.05;
    sk_fault_window_ms = 2500.0;
    sk_element_failures = 2;
    sk_probe_gap_ms = 1.0;
    sk_probe_window_ms = 4000.0;
    sk_flow_size = 1;
    sk_watchdog_ms = Run_config.default_watchdog_ms;
    sk_deadline_ms = Some 1500.0;
    sk_settle_tail_ms = 8000.0;
  }

(* A CI-sized run (tens of thousands of probes, a few seconds of wall
   time) with every mechanism still exercised. *)
let quick_config =
  {
    default_config with
    sk_cycles = 3;
    sk_cycle_ms = 4000.0;
    sk_population = 12;
    sk_updates_per_cycle = 18;
    sk_burst = 3;
    sk_churn_per_cycle = 1;
    sk_fault_window_ms = 1600.0;
    sk_element_failures = 1;
    sk_probe_gap_ms = 2.5;
    sk_probe_window_ms = 2000.0;
    sk_deadline_ms = Some 1800.0;
    sk_settle_tail_ms = 6000.0;
  }

(* Per-cycle leak reading, taken at the cycle boundary after the traffic
   drain. *)
type cycle = {
  cy_index : int;
  cy_injected : int;        (* cumulative probes injected so far *)
  cy_pending_events : int;  (* Sim.pending: event-heap footprint *)
  cy_flows : int;           (* Flow DB size (must equal the population) *)
  cy_in_flight : int;       (* traffic flight table after the drain *)
  cy_violations : int;      (* cumulative invariant violations *)
}

type result = {
  so_topology : string;
  so_cycles : cycle list;   (* chronological *)
  so_sim_ms : float;
  so_wall_s : float;
  so_events : int;
  so_updates_pushed : int;
  so_updates_completed : int;
  so_churned : int;
  so_element_failures : int;
  so_recovery : P4update.Controller.recovery_stats;
  so_withdrawals : int;     (* switch-side WDMs that discarded staged state *)
  so_upd_p50_ms : float;    (* update completion percentiles *)
  so_upd_p99_ms : float;
  so_stuck : (int * int) list; (* unresolved (flow, version) after the tail *)
  so_leaks : string list;      (* leak / monotonicity breaches, human-readable *)
  so_violations : Invariants.violation list;
  so_traffic : Traffic.summary;
  so_series : Obs.Timeseries.window list; (* rolling SLO windows *)
}

let ok r =
  r.so_violations = [] && r.so_stuck = [] && r.so_leaks = []
  && Traffic.violations r.so_traffic = 0

(* ---- flow population (Scale's rotation slots, locally) --------------- *)

type slot = { mutable flow_id : int; mutable paths : int list array; mutable cur : int }

(* A pair is fresh only if it was NEVER admitted — not merely absent from
   the Flow DB.  Re-admitting a retired pair would reuse its flow id at
   version 1 on top of the retired incarnation's high-version UIB state:
   a version rollback the monotonicity invariant rightly rejects, and a
   scenario the protocol never produces (real controllers allocate ids,
   they don't recycle them into live switch state). *)
let draw_pair (w : World.t) g ~n ~used =
  let rec go tries =
    if tries > 10_000 then failwith "Soak.draw_pair: no fresh pair found";
    let src = Sim.uniform_int w.World.sim ~bound:n in
    let dst = Sim.uniform_int w.World.sim ~bound:n in
    if src = dst || Hashtbl.mem used (src, dst) then go (tries + 1)
    else
      match World.flow_of_pair w ~src ~dst with
      | Some _ -> go (tries + 1)
      | None -> (
        match Scale.alt_paths g ~src ~dst with
        | Some paths -> (src, dst, paths)
        | None -> go (tries + 1))
  in
  go 0

let admit (w : World.t) g ~n ~size ~used =
  let src, dst, paths = draw_pair w g ~n ~used in
  Hashtbl.replace used (src, dst) ();
  let flow = World.install_flow w ~src ~dst ~size ~path:paths.(0) in
  { flow_id = flow.P4update.Controller.flow_id; paths; cur = 0 }

(* ---- the monitor ----------------------------------------------------- *)

(* Default SLO sampling window for soak runs (simulated ms). *)
let default_tick_ms = 500.0

let run ?(config = default_config) (cfg : Run_config.t) topo =
  Observe.with_recorder cfg @@ fun _recorder ->
  let w =
    World.make ~seed:cfg.Run_config.seed ~shards:cfg.Run_config.shards topo
  in
  let sim = w.World.sim in
  let net = w.World.net in
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  let sk = config in
  if sk.sk_cycles < 1 || sk.sk_population < 1 then invalid_arg "Soak.run: empty config";
  Array.iter
    (fun sw -> P4update.Switch.enable_watchdog sw ~timeout_ms:sk.sk_watchdog_ms)
    w.World.switches;
  Control.Plane.enable_recovery ?deadline_ms:sk.sk_deadline_ms w.World.plane;
  let metrics = Netsim.metrics net in
  let g_heap = Obs.Metrics.gauge metrics "soak.heap_pending" in
  let g_flows = Obs.Metrics.gauge metrics "soak.flow_db" in
  let c_cycles = Obs.Metrics.counter metrics "soak.cycles" in
  (* Population first: the RNG draw order makes the whole run a pure
     function of the seed.  With [--churn intent] the population is the
     compiled intent program's member flows and every burst comes from
     intent events (drains, TE sweeps, plus the scheduled element
     failures folded in as compiler events); the default slot path below
     is untouched so its determinism pins stay byte-identical. *)
  let ic =
    if cfg.Run_config.intent_churn then
      Some
        (Intent_churn.create
           ~profile:
             { Intent_churn.default_profile with
               Intent_churn.ip_flows = sk.sk_population }
           w)
    else None
  in
  let used : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let slots =
    match ic with
    | Some _ -> [||]
    | None ->
      Array.init sk.sk_population (fun _ -> admit w g ~n ~size:sk.sk_flow_size ~used)
  in
  let tr =
    Traffic.attach
      ~workload:
        { Traffic.default_workload with
          Traffic.tw_mean_gap_ms = sk.sk_probe_gap_ms; tw_stop_ms = 0.0 }
      w
  in
  (* Member flows installed mid-run (an ECMP member regaining a path)
     must be announced to the auditor like any churn admission. *)
  Option.iter
    (fun ic ->
      Intent_churn.set_on_install ic (fun ~flow_id -> Traffic.note_admitted tr ~flow_id))
    ic;
  let monitor = Invariants.create w in
  (* Element down-time bookkeeping for the blackhole excuse: a probe
     injected while (or shortly before / shortly after) an element was
     down may legitimately vanish — in-flight packets over a failing
     link are lost, and a restarted node forwards nothing until its UIB
     is re-synced.  Flow-agnostic by design: a real blackhole persists
     outside these windows and across cycles, where no excuse applies. *)
  let down_open : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let down_closed = ref [] in
  let key_of = function
    | Netsim.Link_down (u, v) | Netsim.Link_up (u, v) -> Printf.sprintf "l%d-%d" u v
    | Netsim.Node_down x | Netsim.Node_up x -> "n" ^ string_of_int x
  in
  Netsim.on_topology_event net (fun ev ->
      match ev with
      | Netsim.Link_down _ | Netsim.Node_down _ ->
        Hashtbl.replace down_open (key_of ev) (Sim.now sim)
      | Netsim.Link_up _ | Netsim.Node_up _ -> (
        match Hashtbl.find_opt down_open (key_of ev) with
        | Some d ->
          Hashtbl.remove down_open (key_of ev);
          down_closed := (d, Sim.now sim) :: !down_closed
        | None -> ()));
  (* [grace_before] covers packets still in flight when the element
     fails (p99 end-to-end latency is well under 250 ms).  [grace_after]
     must cover the repair that follows a restore: a restarted node
     forwards nothing until its resync commits, and that repair — or the
     reroute/abort of a flow reverted onto the restored element — is
     bounded by watchdog + retransmit backoff + the operator deadline,
     not by the restore instant.  Both are dwarfed by the cycle length,
     so a *real* blackhole (a stuck flow) still surfaces: it keeps
     dropping probes cycle after cycle, far outside any window. *)
  let grace_before = 250.0 in
  let grace_after =
    600.0 +. Option.value sk.sk_deadline_ms ~default:(4.0 *. sk.sk_watchdog_ms)
  in
  let excuse _flow ~injected_at =
    List.exists
      (fun (d, u) -> injected_at >= d -. grace_before && injected_at <= u +. grace_after)
      !down_closed
    || Hashtbl.fold
         (fun _ d acc -> acc || injected_at >= d -. grace_before)
         down_open false
  in
  (* Completion capture, Scale-style: push time per (flow, version). *)
  let pending : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let completions = ref [] in
  let completed = ref 0 in
  (* Rolling SLO windows over the whole soak: probe/update rates,
     completion latency p50/p99, in-flight updates, recovery activity
     and heap footprint, one window per simulated half second. *)
  let recovery_rate ts name counter =
    Obs.Timeseries.rate ts name ~unit_:"ops/s" (fun () ->
        float_of_int (Obs.Metrics.get_count metrics counter))
  in
  let series =
    Observe.attach_series cfg sim ~default_tick_ms
      ~title:("p4update soak " ^ topo.Topologies.name)
      ~register:(fun ts ->
        Obs.Timeseries.dist ts "update_latency" ~unit_:"ms";
        Obs.Timeseries.rate ts "pkts" ~unit_:"pkts/s" (fun () ->
            float_of_int (Obs.Metrics.get_count metrics "traffic.injected"));
        Obs.Timeseries.rate ts "completed" ~unit_:"updates/s" (fun () ->
            float_of_int !completed);
        Obs.Timeseries.gauge ts "in_flight" ~unit_:"updates" (fun () ->
            float_of_int (Hashtbl.length pending));
        recovery_rate ts "retransmit" "recovery.retransmissions";
        recovery_rate ts "reroute" "recovery.reroutes";
        recovery_rate ts "abort" "recovery.aborts";
        Obs.Timeseries.gauge ts "heap" ~unit_:"events" (fun () ->
            float_of_int (Sim.pending sim)))
  in
  Control.Plane.on_report w.World.plane (fun r ->
      if r.P4update.Controller.r_status = P4update.Wire.ufm_success then begin
        let key = (r.P4update.Controller.r_flow, r.P4update.Controller.r_version) in
        match Hashtbl.find_opt pending key with
        | Some at ->
          Hashtbl.remove pending key;
          incr completed;
          let sample = r.P4update.Controller.r_time -. at in
          Obs.Timeseries.observe series "update_latency" sample;
          completions := sample :: !completions
        | None -> ()
      end);
  (* Fault hooks, gated by the current cycle's window.  Only
     control-typed frames are faulted (the FCS model downgrades their
     corruption to a drop): a probe packet is never touched by the
     injector, so every probe violation indicts the update plane. *)
  let fault_until = ref 0.0 in
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ bytes ->
      if
        Sim.now sim < !fault_until
        && Chaos.is_control_frame bytes
        && Sim.uniform sim ~bound:1.0 < sk.sk_control_fault_prob
      then Chaos.draw_verdict sim ~downgrade_corrupt:true
      else Netsim.Deliver);
  Netsim.set_control_fault net (fun ~dir:_ _bytes ->
      if Sim.now sim < !fault_until && Sim.uniform sim ~bound:1.0 < sk.sk_control_fault_prob
      then Chaos.draw_verdict sim ~downgrade_corrupt:true
      else Netsim.Deliver);
  let pushed = ref 0 in
  let churned = ref 0 in
  let element_failures = ref 0 in
  let cycles = ref [] in
  (* One arrival burst: distinct slots rotated onto their next paths,
     prepared as a batch, pushed. *)
  let quota = ref 0 in
  let push_prepared prepared =
    let now = Sim.now sim in
    List.iter
      (fun (p : P4update.Controller.prepared) ->
        Hashtbl.replace pending
          (p.P4update.Controller.p_flow, p.P4update.Controller.p_version)
          now;
        Control.Plane.push w.World.plane p;
        incr pushed;
        quota := !quota - 1;
        Traffic.note_pushed tr ~flow_id:p.P4update.Controller.p_flow
          ~version:p.P4update.Controller.p_version)
      prepared
  in
  let intent_burst ic = push_prepared (Intent_churn.burst ic) in
  let slot_burst () =
    let want = min sk.sk_burst !quota in
    let chosen = Hashtbl.create (2 * want) in
    let picked = ref [] in
    let tries = ref 0 in
    while Hashtbl.length chosen < want && !tries < 50 * want do
      incr tries;
      let i = Sim.uniform_int sim ~bound:sk.sk_population in
      if not (Hashtbl.mem chosen i) then begin
        Hashtbl.add chosen i ();
        picked := i :: !picked
      end
    done;
    let requests =
      List.rev_map
        (fun i ->
          let s = slots.(i) in
          s.cur <- (s.cur + 1) mod Array.length s.paths;
          (s.flow_id, s.paths.(s.cur)))
        !picked
    in
    let prepared = Control.Plane.prepare_batch w.World.plane requests in
    push_prepared prepared
  in
  let burst () = match ic with Some ic -> intent_burst ic | None -> slot_burst () in
  (* Churn: retire the slot's flow entirely — Flow DB, push history and
     abort bookkeeping must all return to baseline, which is exactly
     what the leak readings check — and admit a fresh pair. *)
  let churn () =
    let i = Sim.uniform_int sim ~bound:sk.sk_population in
    Control.Plane.retire_flow w.World.plane ~flow_id:slots.(i).flow_id;
    slots.(i) <- admit w g ~n ~size:sk.sk_flow_size ~used;
    incr churned;
    Traffic.note_admitted tr ~flow_id:slots.(i).flow_id
  in
  (* Chaos-style element failures, restored well inside the window. *)
  let schedule_failures ~start =
    let count =
      if sk.sk_element_failures <= 0 || sk.sk_fault_window_ms < 1500.0 then 0
      else Sim.uniform_int sim ~bound:(sk.sk_element_failures + 1)
    in
    let edges = Array.of_list (Graph.edges g) in
    for _ = 1 to count do
      let fail_at = start +. 200.0 +. Sim.uniform sim ~bound:(sk.sk_fault_window_ms -. 1500.0) in
      let restore_at = fail_at +. 300.0 +. Sim.uniform sim ~bound:700.0 in
      if Array.length edges > 0 && Sim.uniform_int sim ~bound:2 = 0 then begin
        let e = edges.(Sim.uniform_int sim ~bound:(Array.length edges)) in
        Netsim.fail_link net ~u:e.Graph.u ~v:e.Graph.v ~at:fail_at;
        Netsim.restore_link net ~u:e.Graph.u ~v:e.Graph.v ~at:restore_at
      end
      else begin
        let rec pick tries =
          let x = Sim.uniform_int sim ~bound:n in
          if x = topo.Topologies.controller && tries < 50 then pick (tries + 1) else x
        in
        let node = pick 0 in
        Netsim.fail_node net ~node ~at:fail_at;
        Netsim.restore_node net ~node ~at:restore_at
      end
    done;
    element_failures := !element_failures + count
  in
  (* Cycle k: faults + churn + updates + probes, then a boundary drain
     with leak readings just before cycle k+1 starts. *)
  let start_cycle k =
    let start = float_of_int k *. sk.sk_cycle_ms in
    Sim.schedule_at sim ~time:start (fun () ->
        fault_until := start +. sk.sk_fault_window_ms;
        schedule_failures ~start;
        (* Intent mode: churn IS the intent-event stream; pair flips off. *)
        if Option.is_none ic then
          for _ = 1 to sk.sk_churn_per_cycle do
            let at = start +. Sim.uniform sim ~bound:(sk.sk_cycle_ms *. 0.6) in
            Sim.schedule_at sim ~time:at churn
          done;
        quota := sk.sk_updates_per_cycle;
        let stop_arrivals = start +. sk.sk_cycle_ms -. 1200.0 in
        let rec arrival () =
          if !quota > 0 && Sim.now sim < stop_arrivals then begin
            burst ();
            Sim.schedule sim ~delay:(Sim.exponential sim ~mean:sk.sk_arrival_mean_ms)
              arrival
          end
        in
        Sim.schedule sim ~delay:(Sim.exponential sim ~mean:sk.sk_arrival_mean_ms) arrival;
        Traffic.inject_until tr ~stop_ms:(start +. sk.sk_probe_window_ms));
    (* Boundary reading strictly before the next cycle's first event. *)
    Sim.schedule_at sim ~time:(start +. sk.sk_cycle_ms -. 0.5) (fun () ->
        Traffic.drain ~excuse tr;
        Invariants.check_structural monitor (World.flows w);
        Obs.Metrics.incr c_cycles;
        Obs.Metrics.set g_heap (float_of_int (Sim.pending sim));
        Obs.Metrics.set g_flows
          (float_of_int (List.length (Control.Plane.flows w.World.plane)));
        Obs.Flight_recorder.note ~now:(Sim.now sim) ~kind:Obs.Flight_recorder.k_leak
          ~node:(-1) ~flow:(-1) ~a:(Sim.pending sim) ~b:(Traffic.in_flight tr);
        cycles :=
          { cy_index = k;
            cy_injected = Obs.Metrics.get_count metrics "traffic.injected";
            cy_pending_events = Sim.pending sim;
            cy_flows = List.length (Control.Plane.flows w.World.plane);
            cy_in_flight = Traffic.in_flight tr;
            cy_violations = List.length (Invariants.violations monitor) }
          :: !cycles;
        (* The cycle boundary is a quiesce point: return the event queue's
           backing storage grown by this cycle's probe burst, so the next
           cycle's leak reading measures pending events, not the
           high-water mark of the busiest burst so far. *)
        Sim.compact sim)
  in
  for k = 0 to sk.sk_cycles - 1 do
    start_cycle k
  done;
  (* Sampled invariant probes throughout, chaos-style. *)
  let horizon = (float_of_int sk.sk_cycles *. sk.sk_cycle_ms) +. sk.sk_settle_tail_ms in
  let rec probe time =
    if time <= horizon then
      Sim.schedule_at sim ~time (fun () ->
          Invariants.check_structural monitor (World.flows w);
          probe (time +. 500.0))
  in
  probe 500.0;
  Sim.reset_stats sim;
  let started = Dessim.Wallclock.now_s () in
  ignore (World.run ~until:horizon w);
  let wall_s = Dessim.Wallclock.elapsed_s ~since:started in
  (* Final readings over the settled plane. *)
  Invariants.check_structural monitor (World.flows w);
  let traffic = Traffic.finalize ~wall_s tr in
  (* Stuck updates: pushed but neither completed, superseded by a later
     push, retired by churn, nor aborted.  The §11 ladder must leave
     this empty — give-ups turn into aborts, not silence. *)
  let stuck =
    Hashtbl.fold
      (fun (flow_id, version) _ acc ->
        match Control.Plane.find_flow w.World.plane ~flow_id with
        | None -> acc (* retired *)
        | Some f ->
          if f.P4update.Controller.version > version then acc (* superseded *)
          else if
            (match Control.Plane.aborted_version w.World.plane ~flow_id with
            | Some v -> v >= version
            | None -> false)
          then acc
          else (flow_id, version) :: acc)
      pending []
    |> List.sort compare
  in
  let cycles = List.rev !cycles in
  let leaks = ref [] in
  let leak fmt = Printf.ksprintf (fun s -> leaks := s :: !leaks) fmt in
  (match cycles with
  | first :: _ :: _ ->
    let last = List.nth cycles (List.length cycles - 1) in
    if last.cy_pending_events > (2 * first.cy_pending_events) + 64 then
      leak "event heap grew across cycles: %d -> %d pending" first.cy_pending_events
        last.cy_pending_events
  | _ -> ());
  (* Intent mode never retires member flows, so the Flow DB baseline is
     the bridge's install count (monotone; in practice fixed at
     bootstrap) instead of the slot population. *)
  let baseline_flows =
    match ic with
    | Some ic -> (Intent_churn.stats ic).Intent_churn.ic_installs
    | None -> sk.sk_population
  in
  List.iter
    (fun c ->
      if c.cy_flows <> baseline_flows then
        leak "flow DB off baseline at cycle %d: %d flows (population %d)" c.cy_index
          c.cy_flows baseline_flows;
      if c.cy_in_flight <> 0 then
        leak "traffic flight table not drained at cycle %d: %d packets" c.cy_index
          c.cy_in_flight)
    cycles;
  if Traffic.in_flight tr <> 0 then
    leak "traffic flight table not empty after finalize: %d" (Traffic.in_flight tr);
  let anchors = Obs.Trace.anchor_count () in
  if anchors <> 0 && stuck = [] then
    leak "trace anchors outstanding on a settled plane: %d" anchors;
  let rstats =
    Option.value
      (Control.Plane.recovery_stats w.World.plane)
      ~default:
        { P4update.Controller.retransmissions = 0; reroutes = 0; resyncs = 0;
          aborts = 0; give_ups = 0 }
  in
  let withdrawals =
    Array.fold_left
      (fun acc sw -> acc + (P4update.Switch.stats sw).P4update.Switch.withdrawals)
      0 w.World.switches
  in
  let stats = Sim.stats sim in
  let samples = !completions in
  let upd_p50 = Option.value ~default:0.0 (Stats.percentile_opt 50.0 samples) in
  let upd_p99 = Option.value ~default:0.0 (Stats.percentile_opt 99.0 samples) in
  (* End-of-run incident triggers: each surviving breach dumps the
     recorder window while the run's tail is still in the ring. *)
  let end_now = Sim.now sim in
  List.iter
    (fun (flow, version) ->
      Obs.Flight_recorder.note ~now:end_now ~kind:Obs.Flight_recorder.k_stuck
        ~node:(-1) ~flow ~a:version ~b:0;
      ignore (Obs.Flight_recorder.trigger ~now:end_now ~reason:"stuck-update"))
    stuck;
  if !leaks <> [] then
    ignore (Obs.Flight_recorder.trigger ~now:end_now ~reason:"leak");
  (* The soak SLO: update completion p99 must beat the operator deadline
     (past it, the §11 ladder would have aborted the update anyway). *)
  (match sk.sk_deadline_ms with
   | Some d when upd_p99 > d ->
     Obs.Flight_recorder.note ~now:end_now ~kind:Obs.Flight_recorder.k_slo
       ~node:(-1) ~flow:(-1) ~a:(int_of_float upd_p99) ~b:(int_of_float d);
     ignore (Obs.Flight_recorder.trigger ~now:end_now ~reason:"slo-breach")
   | Some _ | None -> ());
  Observe.finish_series cfg sim series;
  {
    so_topology = topo.Topologies.name;
    so_cycles = cycles;
    so_sim_ms = Sim.now sim;
    so_wall_s = wall_s;
    so_events = stats.Sim.st_events;
    so_updates_pushed = !pushed;
    so_updates_completed = !completed;
    so_churned =
      (match ic with
      | Some ic -> (Intent_churn.stats ic).Intent_churn.ic_intent_events
      | None -> !churned);
    so_element_failures = !element_failures;
    so_recovery = rstats;
    so_withdrawals = withdrawals;
    so_upd_p50_ms = upd_p50;
    so_upd_p99_ms = upd_p99;
    so_stuck = stuck;
    so_leaks = List.rev !leaks;
    so_violations = Invariants.violations monitor;
    so_traffic = traffic;
    so_series = Obs.Timeseries.windows series;
  }

let pp ppf r =
  let rc = r.so_recovery in
  Format.fprintf ppf
    "@[<v>soak %s: %d cycles, %.0f ms simulated in %.1f s wall (%d events)@,\
     updates: %d pushed, %d completed (p50 %.1f ms, p99 %.1f ms), %d churned@,\
     recovery: retx=%d reroutes=%d resyncs=%d aborts=%d give-ups=%d \
     withdrawals=%d failures=%d@,\
     %a@,\
     stuck=%d leaks=%d invariant-violations=%d -> %s@]"
    r.so_topology (List.length r.so_cycles) r.so_sim_ms r.so_wall_s r.so_events
    r.so_updates_pushed r.so_updates_completed r.so_upd_p50_ms r.so_upd_p99_ms
    r.so_churned rc.P4update.Controller.retransmissions rc.P4update.Controller.reroutes
    rc.P4update.Controller.resyncs rc.P4update.Controller.aborts
    rc.P4update.Controller.give_ups r.so_withdrawals r.so_element_failures Traffic.pp
    r.so_traffic (List.length r.so_stuck) (List.length r.so_leaks)
    (List.length r.so_violations)
    (if ok r then "OK" else "BREACH")

let report_lines r =
  List.concat
    [
      List.map
        (fun c ->
          Printf.sprintf
            "soak cycle %2d: injected=%d pending-events=%d flows=%d in-flight=%d \
             violations=%d"
            c.cy_index c.cy_injected c.cy_pending_events c.cy_flows c.cy_in_flight
            c.cy_violations)
        r.so_cycles;
      List.map
        (fun (f, v) -> Printf.sprintf "soak STUCK: flow %d version %d unresolved" f v)
        r.so_stuck;
      List.map (fun s -> "soak LEAK: " ^ s) r.so_leaks;
      List.map
        (fun v -> "soak VIOLATION: " ^ Invariants.violation_to_string v)
        r.so_violations;
      List.map (fun s -> "soak trend: " ^ s) (Obs.Timeseries.trend_lines r.so_series);
    ]
