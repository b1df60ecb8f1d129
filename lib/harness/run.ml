(* The burst-run loop.

   One loop drives every burst workload: a population (rotation slots
   or the intent program), Poisson arrival bursts of distinct flows
   prepared as one batch and pushed, churn, and optional monitors — the
   Thm. 1–4 probes, the per-packet Traffic auditor, the fault window
   with scheduled element failures, and (for a cycled run)
   boundary leak readings with stuck-update detection.  Completion
   times are captured with an [on_report] hook keyed by (flow, version):
   O(1) per UFM instead of scanning the report log.

   The scale engine is an open run (one stream until the quota is
   pushed); the soak monitor is a cycled run with every monitor on.
   Both draw from the world's sim RNG in a fixed order, so the seed
   determines the whole run. *)

module Sim = Dessim.Sim
module Graph = Topo.Graph
module C = P4update.Controller

type churn = Per_burst of float | Per_cycle of int
type cycles = { cycles : int; cycle_ms : float; tail_ms : float }
type pacing = Open of float | Cycles of cycles
type probe = Every_bursts of int | Every_ms of float

type source = Rotation | Intent

type workload = {
  source : source;
  flows : int;
  updates : int;
  burst : int;
  arrival_mean_ms : float;
  churn : churn;
  pacing : pacing;
  probe : probe;
  audit : Traffic.workload option;
  faults : Run_config.faults option;
}

let default_tick_ms wl = match wl.pacing with Open _ -> 1000.0 | Cycles _ -> 500.0

type cycle = {
  cy_index : int;
  cy_injected : int;
  cy_pending_events : int;
  cy_flows : int;
  cy_in_flight : int;
  cy_violations : int;
}

type result = {
  r_topology : string;
  r_pushed : int;
  r_completed : int;
  r_bursts : int;
  r_underfilled : int;
  r_churned : int;
  r_probes : int;
  r_completion_ms : float list;
  r_p50_ms : float;
  r_p99_ms : float;
  r_sim_ms : float;
  r_wall_s : float;
  r_events : int;
  r_events_per_s : float;
  r_updates_per_s : float;
  r_violations : Invariants.violation list;
  r_series : Obs.Timeseries.window list;
  r_traffic : Traffic.summary option;
  r_cycles : cycle list;
  r_element_failures : int;
  r_recovery : C.recovery_stats;
  r_withdrawals : int;
  r_stuck : (int * int) list;
  r_leaks : string list;
}

let ok r =
  r.r_violations = [] && r.r_stuck = [] && r.r_leaks = []
  && match r.r_traffic with Some s -> Traffic.violations s = 0 | None -> true

(* ---- flow population ------------------------------------------------- *)

(* At least two distinct paths, or the pair is rejected: a single-path
   flow would "rotate" onto its own path, and counting those no-op
   updates would inflate updates/s with work the data plane never sees. *)
let alt_paths g ~src ~dst =
  match Graph.k_shortest_paths g ~src ~dst ~k:3 with
  | [] | [ _ ] -> None
  | paths -> Some (Array.of_list paths)

(* Per-flow rotation state: the alternative paths and which one is live. *)
type slot = { flow_id : int; paths : int list array; mutable cur : int }

type population = {
  world : World.t;
  slots : slot array;
  used : (int, unit) Hashtbl.t; (* every flow id ever admitted *)
}

(* Draw a fresh pair: its flow id was never admitted (see run.mli — a
   fresh pair is not enough, ids live in a masked space) and it has two
   alternative paths.  WANs here are connected, so this ends quickly. *)
let admit (w : World.t) ~used =
  let g = Netsim.graph w.World.net in
  let n = Graph.node_count g in
  let rec draw tries =
    if tries > 10_000 then failwith "Run.admit: no fresh flow id found";
    let src = Sim.uniform_int w.World.sim ~bound:n in
    let dst = Sim.uniform_int w.World.sim ~bound:n in
    let id = Topo.Traffic.flow_id_of_pair ~src ~dst in
    if src = dst || Hashtbl.mem used id then draw (tries + 1)
    else
      match alt_paths g ~src ~dst with
      | Some paths -> (src, dst, paths)
      | None -> draw (tries + 1)
  in
  let src, dst, paths = draw 0 in
  (* Size 1 (centi-units) keeps link capacity non-binding at these
     populations. *)
  let flow = World.install_flow w ~src ~dst ~size:1 ~path:paths.(0) in
  Hashtbl.replace used flow.C.flow_id ();
  { flow_id = flow.C.flow_id; paths; cur = 0 }

(* Admitted one by one so the RNG draw order is a function of the seed. *)
let populate w ~flows =
  let used = Hashtbl.create 64 in
  let slots = Array.init flows (fun _ -> admit w ~used) in
  { world = w; used; slots }

let replace p ~retire i =
  if retire then C.retire_flow p.world.World.controller ~flow_id:p.slots.(i).flow_id;
  let s = admit p.world ~used:p.used in
  p.slots.(i) <- s;
  s.flow_id

(* Pick [want] distinct slots and rotate each onto its next alternative
   path.  The pick gives up after 50 tries per wanted slot, so a burst
   wider than a tiny population comes back short. *)
let rotate p ~want =
  let sim = p.world.World.sim in
  let chosen = Hashtbl.create (2 * want) in
  let picked = ref [] in
  let tries = ref 0 in
  while Hashtbl.length chosen < want && !tries < 50 * want do
    incr tries;
    let i = Sim.uniform_int sim ~bound:(Array.length p.slots) in
    if not (Hashtbl.mem chosen i) then begin
      Hashtbl.add chosen i ();
      picked := i :: !picked
    end
  done;
  List.rev_map
    (fun i ->
      let s = p.slots.(i) in
      s.cur <- (s.cur + 1) mod Array.length s.paths;
      (s.flow_id, s.paths.(s.cur)))
    !picked

type population_state = Slots of population | Program of Intent_churn.t

(* ---- the run loop ---------------------------------------------------- *)

let run ?trace ?tick_ms ?on_window ~seed wl topo =
  (match wl.pacing, wl.churn with
   | _ when wl.flows < 1 || wl.burst < 1 -> invalid_arg "Run.run: empty workload"
   | Cycles c, _ when c.cycles < 1 -> invalid_arg "Run.run: no cycles"
   | Open _, Per_cycle _ -> invalid_arg "Run.run: per-cycle churn needs cycles"
   | Open _, _ when Option.is_some wl.faults -> invalid_arg "Run.run: faults need cycles"
   | _ -> ());
  let w = World.make ~seed ?trace topo in
  let sim = w.World.sim in
  let net = w.World.net in
  let cycled = match wl.pacing with Cycles _ -> true | Open _ -> false in
  (* Each cycle opens the fault window; the hooks draw nothing while it
     is shut, so they go in before the population. *)
  let fault_until = ref 0.0 in
  Option.iter
    (fun f -> Chaos.install_faults w f ~open_:(fun () -> Sim.now sim < !fault_until))
    wl.faults;
  (* Population first, then the observers: they see it as the initial
     state. *)
  let source =
    match wl.source with
    | Intent -> Program (Intent_churn.create ~flows:wl.flows w)
    | Rotation -> Slots (populate w ~flows:wl.flows)
  in
  (* An open run probes from the start; a cycled one per cycle. *)
  let audit =
    Option.map
      (fun a ->
        if cycled then Traffic.attach ~workload:{ a with Traffic.tw_stop_ms = 0.0 } w
        else begin
          let tr = Traffic.attach ~workload:a w in
          Traffic.start tr;
          tr
        end)
      wl.audit
  in
  let injected () = Option.fold ~none:0 ~some:Traffic.injected audit in
  let note_admitted ~flow_id =
    Option.iter (fun tr -> Traffic.note_admitted tr ~flow_id) audit
  in
  (* Member flows installed mid-run (an ECMP member regaining a path)
     are announced to the auditor like any churn admission. *)
  (match source with
   | Program ic -> Intent_churn.set_on_install ic note_admitted
   | Slots _ -> ());
  let monitor = Invariants.create w in
  (* Blackhole excuse: a probe injected while (or shortly before / after)
     an element was down may legitimately vanish — in-flight packets over
     a failing link are lost, and a restarted node forwards nothing until
     its UIB is re-synced.  [grace_before] covers packets in flight when
     the element fails (p99 end-to-end latency is well under 250 ms);
     [grace_after] covers the repair after a restore, bounded by watchdog
     + retransmit backoff + the operator deadline.  Flow-agnostic by
     design: a real blackhole keeps dropping probes cycle after cycle,
     far outside any window. *)
  let excuse =
    Option.map
      (fun f ->
        let down_open = Hashtbl.create 8 in
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
        let grace_before = 250.0 in
        let grace_after =
          600.0
          +. (match f.Run_config.recovery with
              | Deadline d -> d
              | No_recovery | Retries -> 4.0 *. Run_config.default_watchdog_ms)
        in
        fun _flow ~injected_at ->
          List.exists
            (fun (d, u) ->
              injected_at >= d -. grace_before && injected_at <= u +. grace_after)
            !down_closed
          || Hashtbl.fold
               (fun _ d acc -> acc || injected_at >= d -. grace_before)
               down_open false)
      wl.faults
  in
  (* Completion capture: push time per (flow, version); the report hook
     turns the matching success UFM into one completion sample. *)
  let pending : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let completions = ref [] in
  let completed = ref 0 in
  let pushed = ref 0 in
  (* The rolling SLO series, sampled off the simulator's observability
     tick; its probes are registered before the first window closes. *)
  let tick_ms = Option.value tick_ms ~default:(default_tick_ms wl) in
  let series = Obs.Timeseries.create ~tick_ms in
  Obs.Timeseries.dist series "update_latency" ~unit_:"ms";
  if cycled then
    Obs.Timeseries.rate series "pkts" ~unit_:"pkts/s" (fun () ->
        float_of_int (injected ()))
  else
    Obs.Timeseries.rate series "pushed" ~unit_:"updates/s" (fun () ->
        float_of_int !pushed);
  Obs.Timeseries.rate series "completed" ~unit_:"updates/s" (fun () ->
      float_of_int !completed);
  Obs.Timeseries.gauge series "in_flight" ~unit_:"updates" (fun () ->
      float_of_int (Hashtbl.length pending));
  if cycled then
    List.iter
      (fun (name, count) ->
        Obs.Timeseries.rate series name ~unit_:"ops/s" (fun () ->
            match C.recovery_stats w.World.controller with
            | Some r -> float_of_int (count r)
            | None -> 0.0))
      [ ("retransmit", fun r -> r.C.retransmissions);
        ("reroute", fun r -> r.C.reroutes);
        ("abort", fun r -> r.C.aborts) ];
  Obs.Timeseries.gauge series "heap" ~unit_:"events" (fun () ->
      float_of_int (Sim.pending sim));
  Sim.set_tick sim ~every_ms:tick_ms (fun ~now ->
      Obs.Timeseries.tick series ~now;
      Option.iter (fun f -> f series) on_window);
  C.on_report w.World.controller (fun r ->
      if r.C.r_status = P4update.Wire.ufm_success then begin
        let key = (r.C.r_flow, r.C.r_version) in
        match Hashtbl.find_opt pending key with
        | Some at ->
          Hashtbl.remove pending key;
          incr completed;
          let sample = r.C.r_time -. at in
          Obs.Timeseries.observe series "update_latency" sample;
          completions := sample :: !completions
        | None -> ()
      end);
  let quota = ref 0 in
  let bursts = ref 0 in
  let underfilled = ref 0 in
  let churned = ref 0 in
  let probes = ref 0 in
  let element_failures = ref 0 in
  let probe () =
    incr probes;
    Invariants.check_structural monitor (World.flows w)
  in
  let churn pop ~retire =
    let flow_id = replace pop ~retire (Sim.uniform_int sim ~bound:wl.flows) in
    incr churned;
    note_admitted ~flow_id
  in
  let burst () =
    let want = min wl.burst !quota in
    let prepared =
      match source with
      | Program ic ->
        let prepared = Intent_churn.burst ic in
        if prepared = [] then incr underfilled;
        prepared
      | Slots pop ->
        let requests = rotate pop ~want in
        if List.length requests < want then incr underfilled;
        C.prepare_batch w.World.controller requests
    in
    let now = Sim.now sim in
    List.iter
      (fun (p : C.prepared) ->
        Hashtbl.replace pending (p.C.p_flow, p.C.p_version) now;
        C.push w.World.controller p;
        incr pushed;
        decr quota)
      prepared;
    incr bursts;
    (match source, wl.churn with
     | Slots pop, Per_burst p when p > 0.0 && Sim.uniform sim ~bound:1.0 < p ->
       churn pop ~retire:false
     | _ -> ());
    match wl.probe with
    | Every_bursts n when n > 0 && !bursts mod n = 0 -> probe ()
    | _ -> ()
  in
  let rec arrival ~stop () =
    if !quota > 0 && Sim.now sim < stop then begin
      burst ();
      Sim.schedule sim ~delay:(Sim.exponential sim ~mean:wl.arrival_mean_ms) (arrival ~stop)
    end
  in
  let start_stream ~stop =
    quota := wl.updates;
    Sim.schedule sim ~delay:(Sim.exponential sim ~mean:wl.arrival_mean_ms) (arrival ~stop)
  in
  let cycles = ref [] in
  (* The boundary reading, strictly before the next cycle's first event:
     drain the auditor, probe, and record the leak readings. *)
  let boundary k =
    Option.iter (fun tr -> Traffic.drain ?excuse tr) audit;
    probe ();
    let in_flight = Option.fold ~none:0 ~some:Traffic.in_flight audit in
    let flows = List.length (C.flows w.World.controller) in
    Obs.Flight_recorder.note ~now:(Sim.now sim) ~kind:Obs.Flight_recorder.k_leak ~node:(-1)
      ~flow:(-1) ~a:(Sim.pending sim) ~b:in_flight;
    cycles :=
      { cy_index = k;
        cy_injected = injected ();
        cy_pending_events = Sim.pending sim;
        cy_flows = flows;
        cy_in_flight = in_flight;
        cy_violations = List.length (Invariants.violations monitor) }
      :: !cycles;
    (* A quiesce point: return the queue storage grown by this cycle's
       probe burst, so the next reading measures pending events, not the
       high-water mark of the busiest burst so far. *)
    Sim.compact sim
  in
  let horizon =
    match wl.pacing with
    | Open horizon -> horizon
    | Cycles c -> (float_of_int c.cycles *. c.cycle_ms) +. c.tail_ms
  in
  (match wl.pacing with
   | Open _ -> ()
   | Cycles c ->
      for k = 0 to c.cycles - 1 do
        let start = float_of_int k *. c.cycle_ms in
        Sim.schedule_at sim ~time:start (fun () ->
            Option.iter
              (fun (f : Run_config.faults) ->
                fault_until := start +. f.window_ms;
                element_failures :=
                  !element_failures
                  + Chaos.schedule_element_failures ~start w ~window_ms:f.window_ms
                      ~max_failures:f.element_failures)
              wl.faults;
            (match source, wl.churn with
             | Slots pop, Per_cycle n ->
               for _ = 1 to n do
                 let at = start +. Sim.uniform sim ~bound:(c.cycle_ms *. 0.6) in
                 Sim.schedule_at sim ~time:at (fun () -> churn pop ~retire:true)
               done
             | _ -> ());
            start_stream ~stop:(start +. c.cycle_ms -. 1200.0);
            match audit, wl.audit with
            | Some tr, Some a ->
              Traffic.inject_until tr ~stop_ms:(start +. a.Traffic.tw_stop_ms)
            | _ -> ());
        Sim.schedule_at sim ~time:(start +. c.cycle_ms -. 0.5) (fun () -> boundary k)
      done);
  (match wl.probe with
   | Every_ms dt ->
     let rec arm time =
       if time <= horizon then
         Sim.schedule_at sim ~time (fun () ->
             probe ();
             arm (time +. dt))
     in
     arm dt
   | Every_bursts _ -> ());
  Sim.reset_stats sim;
  if not cycled then start_stream ~stop:infinity;
  let started = Dessim.Wallclock.now_s () in
  ignore (World.run ~until:horizon w);
  let wall_s = Dessim.Wallclock.elapsed_s ~since:started in
  (* Final probe over the quiesced plane. *)
  (match wl.probe with Every_bursts n when n <= 0 -> () | _ -> probe ());
  let traffic = Option.map (Traffic.finalize ~wall_s) audit in
  let samples = !completions in
  let p50 = Option.value ~default:0.0 (Stats.percentile_opt 50.0 samples) in
  let p99 = Option.value ~default:0.0 (Stats.percentile_opt 99.0 samples) in
  (* Stuck updates: pushed but neither completed, superseded by a later
     push, retired by churn, nor aborted.  The §11 ladder must leave this
     empty — give-ups turn into aborts, not silence. *)
  let stuck =
    if not cycled then []
    else
      Hashtbl.fold
        (fun (flow_id, version) _ acc ->
          match C.find_flow w.World.controller ~flow_id with
          | None -> acc
          | Some f when f.C.version > version -> acc
          | Some _ -> (
            match C.aborted_version w.World.controller ~flow_id with
            | Some v when v >= version -> acc
            | _ -> (flow_id, version) :: acc))
        pending []
      |> List.sort compare
  in
  let cycles = List.rev !cycles in
  let leaks = ref [] in
  let leak fmt = Printf.ksprintf (fun s -> leaks := s :: !leaks) fmt in
  if cycled then begin
    (match cycles with
     | first :: _ :: _ ->
       let last = List.nth cycles (List.length cycles - 1) in
       if last.cy_pending_events > (2 * first.cy_pending_events) + 64 then
         leak "event heap grew across cycles: %d -> %d pending" first.cy_pending_events
           last.cy_pending_events
     | _ -> ());
    (* Intent churn never retires member flows: its Flow DB baseline is
       the bridge's install count. *)
    let baseline_flows =
      match source with
      | Program ic -> (Intent_churn.stats ic).Intent_churn.ic_installs
      | Slots _ -> wl.flows
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
    Option.iter
      (fun tr ->
        if Traffic.in_flight tr <> 0 then
          leak "traffic flight table not empty after finalize: %d" (Traffic.in_flight tr))
      audit;
    (* End-of-run incident triggers: each breach dumps the recorder
       window while the run's tail is still in the ring. *)
    let now = Sim.now sim in
    List.iter
      (fun (flow, version) ->
        Obs.Flight_recorder.note ~now ~kind:Obs.Flight_recorder.k_stuck ~node:(-1) ~flow
          ~a:version ~b:0;
        ignore (Obs.Flight_recorder.trigger ~now ~reason:"stuck-update"))
      stuck;
    if !leaks <> [] then ignore (Obs.Flight_recorder.trigger ~now ~reason:"leak");
    (* The soak SLO: update completion p99 must beat the operator deadline
       (past it, the §11 ladder would have aborted the update anyway). *)
    match wl.faults with
    | Some { recovery = Deadline d; _ } when p99 > d ->
      Obs.Flight_recorder.note ~now ~kind:Obs.Flight_recorder.k_slo ~node:(-1) ~flow:(-1)
        ~a:(int_of_float p99) ~b:(int_of_float d);
      ignore (Obs.Flight_recorder.trigger ~now ~reason:"slo-breach")
    | _ -> ()
  end;
  let stats = Sim.stats sim in
  Sim.clear_tick sim;
  {
    r_topology = topo.Topo.Topologies.name;
    r_pushed = !pushed;
    r_completed = !completed;
    r_bursts = !bursts;
    r_underfilled = !underfilled;
    r_churned =
      (match source with
       | Program ic -> (Intent_churn.stats ic).Intent_churn.ic_intent_events
       | Slots _ -> !churned);
    r_probes = !probes;
    r_completion_ms = samples;
    r_p50_ms = p50;
    r_p99_ms = p99;
    r_sim_ms = Sim.now sim;
    r_wall_s = wall_s;
    r_events = stats.Sim.st_events;
    r_events_per_s = stats.Sim.st_events_per_s;
    r_updates_per_s =
      (if stats.Sim.st_wall_s > 0.0 then float_of_int !completed /. stats.Sim.st_wall_s
       else 0.0);
    r_violations = Invariants.violations monitor;
    r_series = Obs.Timeseries.windows series;
    r_traffic = traffic;
    r_cycles = cycles;
    r_element_failures = !element_failures;
    r_recovery =
      Option.value
        (C.recovery_stats w.World.controller)
        ~default:
          { C.retransmissions = 0; reroutes = 0; resyncs = 0; aborts = 0; give_ups = 0 };
    r_withdrawals =
      Array.fold_left
        (fun acc sw -> acc + (P4update.Switch.stats sw).P4update.Switch.withdrawals)
        0 w.World.switches;
    r_stuck = stuck;
    r_leaks = List.rev !leaks;
  }
