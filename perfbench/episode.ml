(* One episode: set a workload up from its seed, run it to drain through
   the one loop, check it and report.

   The loop mirrors what [Harness.Scale], [Traffic] and [Soak] do, built
   only from public calls: a rotating flow population admitted through
   [World.install_flow]; Poisson update bursts prepared with
   [Plane.prepare_batch] and sent with [Plane.push]; churn; the Traffic
   auditor drained at each cycle's quiet instant; a control-frame fault
   window with [Chaos.draw_verdict] and scheduled link/node failures
   under section 11 recovery; and [Invariants.check_structural] probes.
   It runs what a user gets by default (heap kernel, flight recorder
   installed, one controller) and drives [Sim.step] until the queue is
   empty, never to a padded horizon. *)

module Sim = Dessim.Sim
module Graph = Topo.Graph
module Plane = Control.Plane
module C = P4update.Controller
module W = Harness.World
module Traffic = Harness.Traffic
module Invariants = Harness.Invariants
module Wl = Workloads

type value = I of int | F of float | L of float list | O of (string * value) list

let clock = Dessim.Wallclock.now_s

type slot = { mutable flow_id : int; mutable paths : int list array; mutable cur : int }

(* A pair is fresh only if its flow id was never used: ids are a hash of
   the pair masked into the flow space, and a retired flow's id must not
   come back at version 1 over its old switch state (nor mix its
   (flow, version) completions with the new flow's).  [draw bound] picks
   the endpoints. *)
let admit (w : W.t) g ~draw ~used ~paths_s =
  let n = Graph.node_count g in
  let rec pick tries =
    if tries > 10_000 then failwith "perfbench: no fresh flow id left";
    let src = draw n in
    let dst = draw n in
    let id = Topo.Traffic.flow_id_of_pair ~src ~dst land (P4update.Wire.flow_space - 1) in
    if src = dst || Hashtbl.mem used id then pick (tries + 1)
    else begin
      let t0 = clock () in
      let paths = Harness.Scale.alt_paths g ~src ~dst in
      paths_s := !paths_s +. (clock () -. t0);
      match paths with Some p -> (id, src, dst, p) | None -> pick (tries + 1)
    end
  in
  let id, src, dst, paths = pick 0 in
  Hashtbl.replace used id ();
  let f = W.install_flow w ~src ~dst ~size:1 ~path:paths.(0) in
  { flow_id = f.C.flow_id; paths; cur = 0 }

let hash_combine h x = ((h * 1000003) lxor x) land 0x3FFFFFFF

(* [population] seeds the initial flow population, [seed] everything
   after it (bursts, churn, probes, faults, and the simulator's own
   draws). *)
let run (wl : Wl.t) ~population ~seed ~traced =
  Obs.Flight_recorder.install (Obs.Flight_recorder.create ());
  (* ---- set-up: topology, World, alternative paths, population ---- *)
  let t0 = clock () in
  let topo = wl.Wl.topology () in
  let g = topo.Topo.Topologies.graph in
  let t1 = clock () in
  let w = W.make ~seed topo in
  let t2 = clock () in
  let paths_s = ref 0.0 in
  let used = Hashtbl.create 256 in
  let rng = Random.State.make [| population |] in
  let slots =
    Array.init wl.Wl.flows (fun _ -> admit w g ~draw:(Random.State.int rng) ~used ~paths_s)
  in
  let setup_s = clock () -. t0 in
  let sim = w.W.sim and net = w.W.net in
  let prof = Layers.create ~on:traced in
  (* ---- observers: the auditor sits between the two delivery marks ---- *)
  if traced then Netsim.on_delivery net (fun _ _ _ bytes -> Layers.delivery_start prof bytes);
  let tr =
    Option.map
      (fun (p : Wl.probes) ->
        Traffic.attach
          ~workload:
            { Traffic.default_workload with Traffic.tw_mean_gap_ms = p.Wl.p_gap_ms; tw_stop_ms = 0.0 }
          w)
      wl.Wl.probes
  in
  if traced then begin
    Netsim.on_delivery net (fun _ _ _ _ -> Layers.delivery_switch prof);
    Netsim.set_controller net (fun ~from bytes ->
        Layers.controller_frame prof bytes (fun () -> C.handle w.W.controller ~from bytes))
  end;
  let monitor = Invariants.create w in
  let checks = ref 0 in
  let check () =
    incr checks;
    Layers.span prof prof.Layers.check (fun () -> Invariants.check_structural monitor (W.flows w))
  in
  (* ---- section 11 faults and recovery ---- *)
  let fault_until = ref 0.0 in
  let down_open = Hashtbl.create 8 and down_closed = ref [] in
  let element_failures = ref 0 in
  Option.iter
    (fun (f : Wl.faults) ->
      Array.iter (fun sw -> P4update.Switch.enable_watchdog sw ~timeout_ms:f.Wl.f_watchdog_ms) w.W.switches;
      Plane.enable_recovery ~deadline_ms:f.Wl.f_deadline_ms w.W.plane;
      let faulted () = Sim.uniform sim ~bound:1.0 < f.Wl.f_prob in
      Netsim.set_data_fault net (fun ~from:_ ~to_:_ bytes ->
          if Sim.now sim < !fault_until && Harness.Chaos.is_control_frame bytes && faulted ()
          then Harness.Chaos.draw_verdict sim ~downgrade_corrupt:true
          else Netsim.Deliver);
      Netsim.set_control_fault net (fun ~dir:_ _ ->
          if Sim.now sim < !fault_until && faulted ()
          then Harness.Chaos.draw_verdict sim ~downgrade_corrupt:true
          else Netsim.Deliver);
      let key = function
        | Netsim.Link_down (u, v) | Netsim.Link_up (u, v) -> (u, v)
        | Netsim.Node_down x | Netsim.Node_up x -> (x, -1)
      in
      Netsim.on_topology_event net (fun ev ->
          match ev with
          | Netsim.Link_down _ | Netsim.Node_down _ -> Hashtbl.replace down_open (key ev) (Sim.now sim)
          | Netsim.Link_up _ | Netsim.Node_up _ -> (
            match Hashtbl.find_opt down_open (key ev) with
            | Some d ->
              Hashtbl.remove down_open (key ev);
              down_closed := (d, Sim.now sim) :: !down_closed
            | None -> ())))
    wl.Wl.faults;
  (* Soak's blackhole excuse: a probe injected around an element's down
     time may legitimately vanish. *)
  let excuse _flow ~injected_at =
    match wl.Wl.faults with
    | None -> false
    | Some f ->
      let before = 250.0 and after = 600.0 +. f.Wl.f_deadline_ms in
      List.exists (fun (d, u) -> injected_at >= d -. before && injected_at <= u +. after) !down_closed
      || Hashtbl.fold (fun _ d acc -> acc || injected_at >= d -. before) down_open false
  in
  let schedule_failures ~start =
    match wl.Wl.faults with
    | None -> ()
    | Some f ->
      let edges = Array.of_list (Graph.edges g) in
      let count = Sim.uniform_int sim ~bound:(f.Wl.f_elements + 1) in
      for _ = 1 to count do
        let fail_at = start +. 200.0 +. Sim.uniform sim ~bound:(f.Wl.f_window_ms -. 1500.0) in
        let restore_at = fail_at +. 300.0 +. Sim.uniform sim ~bound:700.0 in
        if Sim.uniform_int sim ~bound:2 = 0 then begin
          let e = edges.(Sim.uniform_int sim ~bound:(Array.length edges)) in
          Netsim.fail_link net ~u:e.Graph.u ~v:e.Graph.v ~at:fail_at;
          Netsim.restore_link net ~u:e.Graph.u ~v:e.Graph.v ~at:restore_at
        end
        else begin
          let rec pick tries =
            let x = Sim.uniform_int sim ~bound:(Graph.node_count g) in
            if x = topo.Topo.Topologies.controller && tries < 50 then pick (tries + 1) else x
          in
          let node = pick 0 in
          Netsim.fail_node net ~node ~at:fail_at;
          Netsim.restore_node net ~node ~at:restore_at
        end
      done;
      element_failures := !element_failures + count
  in
  (* ---- completion capture: push time per (flow, version) ---- *)
  let pending = Hashtbl.create 1024 in
  let samples = ref [] and completed = ref 0 and digest = ref 0x1505 in
  Plane.on_report w.W.plane (fun r ->
      if r.C.r_status = P4update.Wire.ufm_success then
        match Hashtbl.find_opt pending (r.C.r_flow, r.C.r_version) with
        | Some at ->
          Hashtbl.remove pending (r.C.r_flow, r.C.r_version);
          incr completed;
          let sample = r.C.r_time -. at in
          samples := sample :: !samples;
          digest :=
            hash_combine !digest
              (Hashtbl.hash (r.C.r_flow, r.C.r_version, int_of_float ((sample *. 1000.0) +. 0.5)))
        | None -> ());
  (* ---- update bursts ---- *)
  let quota = ref 0 and pushed = ref 0 and bursts = ref 0 and churned = ref 0 in
  let burst () =
    let want = min wl.Wl.burst !quota in
    let chosen = Hashtbl.create (2 * want) and picked = ref [] and tries = ref 0 in
    while Hashtbl.length chosen < want && !tries < 50 * want do
      incr tries;
      let i = Sim.uniform_int sim ~bound:wl.Wl.flows in
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
    let prepared =
      Layers.update_span prof prof.Layers.prepare (fun () -> Plane.prepare_batch w.W.plane requests)
    in
    prof.Layers.prepared <- prof.Layers.prepared + List.length prepared;
    let now = Sim.now sim in
    List.iter
      (fun (p : C.prepared) ->
        Hashtbl.replace pending (p.C.p_flow, p.C.p_version) now;
        Layers.update_span prof prof.Layers.push (fun () -> Plane.push w.W.plane p);
        prof.Layers.uims <- prof.Layers.uims + List.length p.C.p_uims;
        incr pushed;
        decr quota)
      prepared;
    incr bursts;
    if Sim.uniform sim ~bound:1.0 < wl.Wl.churn then begin
      let i = Sim.uniform_int sim ~bound:wl.Wl.flows in
      Plane.retire_flow w.W.plane ~flow_id:slots.(i).flow_id;
      slots.(i) <- admit w g ~draw:(fun bound -> Sim.uniform_int sim ~bound) ~used ~paths_s:(ref 0.0);
      incr churned;
      Option.iter (fun tr -> Traffic.note_admitted tr ~flow_id:slots.(i).flow_id) tr
    end;
    if !bursts mod wl.Wl.check_every = 0 then check ()
  in
  let rec arrival ~stop () =
    Layers.arrival prof;
    if !quota > 0 && Sim.now sim < stop then begin
      burst ();
      Sim.schedule sim ~delay:(Sim.exponential sim ~mean:wl.Wl.arrival_mean_ms) (arrival ~stop)
    end
  in
  (* ---- cycles ---- *)
  let in_flight_max = ref 0 in
  for k = 0 to wl.Wl.cycles - 1 do
    let start = float_of_int k *. Option.value wl.Wl.cycle_ms ~default:0.0 in
    Sim.schedule_at sim ~time:start (fun () ->
        Layers.arrival prof;
        Option.iter (fun (f : Wl.faults) -> fault_until := start +. f.Wl.f_window_ms) wl.Wl.faults;
        schedule_failures ~start;
        quota := wl.Wl.updates_per_cycle;
        let stop =
          match wl.Wl.cycle_ms with Some c -> start +. c -. wl.Wl.quiet_ms | None -> Float.infinity
        in
        Sim.schedule sim ~delay:(Sim.exponential sim ~mean:wl.Wl.arrival_mean_ms) (arrival ~stop);
        match (tr, wl.Wl.probes) with
        | Some tr, Some p -> Traffic.inject_until tr ~stop_ms:(start +. p.Wl.p_window_ms)
        | _ -> ());
    Option.iter
      (fun c ->
        Sim.schedule_at sim ~time:(start +. c -. 0.5) (fun () ->
            Layers.arrival prof;
            Option.iter
              (fun tr ->
                in_flight_max := max !in_flight_max (Traffic.in_flight tr);
                Layers.span prof prof.Layers.drain (fun () -> Traffic.drain ~excuse tr))
              tr;
            check ();
            Sim.compact sim))
      wl.Wl.cycle_ms
  done;
  (* ---- the loop ---- *)
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let started = clock () in
  while Layers.step prof sim do
    ()
  done;
  let wall_s = clock () -. started in
  let minor_words = Gc.minor_words () -. minor0 in
  let gc1 = Gc.quick_stat () in
  let events = (Sim.stats sim).Sim.st_events in
  (* ---- final readings over the drained plane ---- *)
  incr checks;
  Invariants.check_structural monitor (W.flows w);
  let ts = Option.map (fun tr -> Traffic.finalize ~wall_s tr) tr in
  let aborted = ref 0 and stuck = ref 0 in
  Hashtbl.iter
    (fun (flow_id, version) _ ->
      match Plane.find_flow w.W.plane ~flow_id with
      | None -> () (* retired by churn *)
      | Some f when f.C.version > version -> () (* superseded *)
      | Some _ -> (
        match Plane.aborted_version w.W.plane ~flow_id with
        | Some v when v >= version -> incr aborted
        | Some _ | None -> incr stuck))
    pending;
  let violations = List.length (Invariants.violations monitor) in
  let rec_stats =
    Option.value (Plane.recovery_stats w.W.plane)
      ~default:{ C.retransmissions = 0; reroutes = 0; resyncs = 0; aborts = 0; give_ups = 0 }
  in
  let sw f = Array.fold_left (fun acc s -> acc + f (P4update.Switch.stats s)) 0 w.W.switches in
  let nc = Netsim.counters net in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let ts_get f = match ts with Some s -> f s | None -> 0 in
  let ts_getf f = match ts with Some s -> f s | None -> 0.0 in
  let recorder_notes =
    match Obs.Flight_recorder.get () with Some r -> Obs.Flight_recorder.total r | None -> 0
  in
  (* Every simulated output: identical for every run of one seed, traced
     or not. *)
  let sim_outputs =
    [
      ("events", I events);
      ("sim_ms", F (Sim.now sim));
      ("pushed", I !pushed);
      ("completed", I !completed);
      ("aborted", I !aborted);
      ("stuck", I !stuck);
      ("bursts", I !bursts);
      ("churned", I !churned);
      ("completion_digest", I !digest);
      ("invariant_violations", I violations);
      ("invariant_checks", I !checks);
      ("probes_injected", I (ts_get (fun s -> s.Traffic.ts_injected)));
      ("probes_delivered", I (ts_get (fun s -> s.Traffic.ts_delivered)));
      ("probe_violations", I (ts_get Traffic.violations));
      ("probes_excused", I (ts_get (fun s -> s.Traffic.ts_excused)));
      ("sim_probe_p50_ms", F (ts_getf (fun s -> s.Traffic.ts_p50_ms)));
      ("sim_probe_p99_ms", F (ts_getf (fun s -> s.Traffic.ts_p99_ms)));
      ("ts_digest", I (ts_get (fun s -> s.Traffic.ts_digest)));
      ("element_failures", I !element_failures);
      ("obs.recorder_notes", I recorder_notes);
      ("netsim.data_packets", I nc.Netsim.data_packets);
      ("netsim.control_to_switch", I nc.Netsim.control_to_switch);
      ("netsim.control_to_controller", I nc.Netsim.control_to_controller);
      ("netsim.resubmissions", I nc.Netsim.resubmissions);
      ("netsim.fault_drops", I nc.Netsim.dropped_by_fault);
      ("switch.commits", I (sw (fun s -> s.P4update.Switch.commits)));
      ("switch.waits", I (sw (fun s -> s.P4update.Switch.waits)));
      ("switch.congestion_defers", I (sw (fun s -> s.P4update.Switch.congestion_defers)));
      ("switch.alarms", I (sw (fun s -> s.P4update.Switch.alarms)));
      ("switch.withdrawals", I (sw (fun s -> s.P4update.Switch.withdrawals)));
      ("controller.retransmissions", I rec_stats.C.retransmissions);
      ("controller.reroutes", I rec_stats.C.reroutes);
      ("controller.resyncs", I rec_stats.C.resyncs);
      ("controller.aborts", I rec_stats.C.aborts);
      ("controller.give_ups", I rec_stats.C.give_ups);
    ]
  in
  let measured =
    [
      ("setup_s", F setup_s);
      ("setup.topo_s", F (t1 -. t0));
      ("setup.world_s", F (t2 -. t1));
      ("setup.paths_s", F !paths_s);
      ("wall_s", F wall_s);
      ("minor_words", F minor_words);
      ("major_collections", I (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("peak_heap_mb", F (float_of_int gc1.Gc.top_heap_words *. word_mb));
    ]
  in
  let layers =
    if not traced then []
    else begin
      let p = prof in
      let note_ns =
        (* Flight-recorder note cost, on the recorder the run used. *)
        let n = 200_000 in
        let t0 = Layers.now () in
        for i = 1 to n do
          Obs.Flight_recorder.note ~now:0.0 ~kind:Obs.Flight_recorder.k_deliver ~node:i ~flow:0 ~a:0 ~b:0
        done;
        float_of_int (Layers.now () - t0) /. float_of_int n
      in
      let decode_ns, encode_ns, wire_words = Replay.wire p.Layers.frames p.Layers.frame_n in
      let replay_ns =
        Replay.queue ~seed ~pend:p.Layers.pend.Layers.ia ~pops:p.Layers.pops.Layers.fa
          p.Layers.pend.Layers.in_
      in
      let s = Layers.s in
      let per a n = if n = 0 then 0.0 else float_of_int a /. float_of_int n in
      [
        ("dessim.step_s", F (s p.Layers.step.Layers.ns));
        ("dessim.pending_max", I p.Layers.pending_max);
        ("dessim.pending_mean", F (per p.Layers.pending_sum events));
        ("dessim.queue_replay_ns_per_op", F replay_ns);
        ("wire.frames_captured", I p.Layers.frame_n);
        ("wire.decode_ns_per_frame", F decode_ns);
        ("wire.encode_ns_per_frame", F encode_ns);
        ("wire.minor_words_per_frame", F wire_words);
        ("switch.data_deliveries", I p.Layers.data.Layers.calls);
        ("controller.prepare_ns_per_update", F (per p.Layers.prepare.Layers.ns p.Layers.prepared));
        ("controller.push_ns_per_update", F (per p.Layers.push.Layers.ns p.Layers.push.Layers.calls));
        ("controller.uims", I p.Layers.uims);
        ("controller.frames_handled", I p.Layers.handle.Layers.calls);
        ("controller.minor_words_per_update", F (p.Layers.update_words /. float_of_int (max 1 !pushed)));
        ("traffic.drain_ns_per_pkt", F (per p.Layers.drain.Layers.ns (ts_get (fun s -> s.Traffic.ts_injected))));
        ("traffic.in_flight_max", I !in_flight_max);
        ("obs.note_ns", F note_ns);
        ("obs.recorder_est_s", F (float_of_int recorder_notes *. note_ns *. 1e-9));
        ("other.steps", I p.Layers.other.Layers.calls);
        ("trace.overlaps", I p.Layers.overlaps);
      ]
      @ List.map (fun (k, v) -> (k, F v)) (Layers.rows p)
    end
  in
  Obs.Flight_recorder.uninstall ();
  [
    ("sim", O sim_outputs);
    ("wall", O measured);
    ("layers", O layers);
    ("update_samples", L (List.rev !samples));
  ]
