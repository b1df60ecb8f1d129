(* Bounded model-checking scenarios.

   Each scenario deterministically builds a world, installs a flow and
   schedules one or two updates.  The configurations are RNG-free on
   purpose ([Fixed] control latency, no rule-update stragglers, no
   controller background load): the global state is then a pure function
   of the delivery order, which is what makes fingerprint-based pruning
   sound — two schedules reaching the same fingerprint really are in the
   same state. *)

module Sim = Dessim.Sim
module World = Harness.World
module Topologies = Topo.Topologies

type ctx = {
  cx_world : World.t;
  cx_monitor : Harness.Invariants.monitor;
  cx_flows : P4update.Controller.flow list;
  cx_expect : (int * int list) list option;
      (* (flow_id, final path) — None: check safety invariants only
         (regression scenarios are expected to wedge when the fix is on) *)
  cx_horizon_ms : float;
}

type t = {
  sc_name : string;
  sc_descr : string;
  sc_window_ms : float; (* default reorder window *)
  sc_guard : P4update.Switch.guard option;
      (* which DESIGN §4b fix [--unsafe] disables for this scenario *)
  sc_build : Harness.Run_config.t -> ctx;
}

(* The canonical configuration of the checker's default path: seed 7
   (pinned by the fingerprint regression tests) and the per-scenario
   reorder window. *)
let default_cfg = Harness.Run_config.make ~seed:7 ()

(* Reorder window for a run: an explicit [reorder_window_ms] in the
   config beats the scenario's default. *)
let window_of (cfg : Harness.Run_config.t) sc =
  Option.value cfg.Harness.Run_config.reorder_window_ms ~default:sc.sc_window_ms

let mc_config =
  {
    Netsim.default_config with
    control_latency = Netsim.Fixed 1.0;
    rule_update_mean_ms = None;
  }

let make_world ?flows (cfg : Harness.Run_config.t) topo =
  World.make ~seed:cfg.Harness.Run_config.seed ~config:mc_config
    ?trace:cfg.Harness.Run_config.trace_sink ?flows topo

(* Fig. 2a: the paper's running example — one SL update moving the flow
   from [0;1;2;3;4] to [0;1;2;4] on the 5-node Fig. 2 topology. *)
let build_fig2a cfg =
  let w =
    make_world cfg (Topologies.fig2 ())
      ~flows:[ World.flow ~src:0 ~dst:4 ~path:Topologies.fig2_config_a () ]
  in
  let monitor = Harness.Invariants.create w in
  let flow = Option.get (World.flow_of_pair w ~src:0 ~dst:4) in
  ignore
    (P4update.Controller.update_flow w.World.controller
       ~flow_id:flow.P4update.Controller.flow_id ~new_path:Topologies.fig2_config_b
       ~update_type:P4update.Wire.Sl ());
  {
    cx_world = w;
    cx_monitor = monitor;
    cx_flows = [ flow ];
    cx_expect = Some [ (flow.P4update.Controller.flow_id, Topologies.fig2_config_b) ];
    cx_horizon_ms = 500.0;
  }

(* The 6-node skip-ahead scenario (Fig. 4): a DL update U2 is overtaken
   by a later SL update U3 pushed [gap] ms later; every interleaving must
   still converge to U3's path. *)
let six_skip_gap_ms = 2.0

let build_six_skip cfg =
  let v1 = [ 0; 2; 3; 5 ] and u2 = [ 0; 1; 3; 2; 4; 5 ] and u3 = [ 0; 2; 4; 5 ] in
  let w =
    make_world cfg (Topologies.six_node ())
      ~flows:[ World.flow ~src:0 ~dst:5 ~path:v1 () ]
  in
  let monitor = Harness.Invariants.create w in
  let flow = Option.get (World.flow_of_pair w ~src:0 ~dst:5) in
  let fid = flow.P4update.Controller.flow_id in
  ignore
    (P4update.Controller.update_flow w.World.controller ~flow_id:fid ~new_path:u2
       ~update_type:P4update.Wire.Dl ());
  Sim.schedule w.World.sim ~delay:six_skip_gap_ms (fun () ->
      ignore
        (P4update.Controller.update_flow w.World.controller ~flow_id:fid ~new_path:u3
           ~update_type:P4update.Wire.Sl ()));
  {
    cx_world = w;
    cx_monitor = monitor;
    cx_flows = [ flow ];
    cx_expect = Some [ (fid, u3) ];
    cx_horizon_ms = 1000.0;
  }

(* Regression pin for DESIGN §4b fix 2 (the egress-port guard): the
   controller's view of the old path is wrong — it believes node 3 is on
   the path and holds a rule (3->4), but the actually-installed path
   bypasses it, so node 3 is rule-less.  One update to the flow was lost
   before reaching the data plane ([bump_version]), so when the DL
   update arrives, upstream node 1 lags two versions — an inside-segment
   node whose Alg. 2 branch skips the version-chain check and accepts
   any strictly-smaller old-distance label.  A rule-less node 3 invited
   to act as segment egress would propose with the trivially-smallest
   label 0: with the guard off ([--unsafe]), node 1 joins and forwards
   into empty node 3 — a blackhole at a healthy node.  With the guard,
   3 never proposes until it holds a rule, and every schedule is safe. *)
let build_ruleless_gateway cfg =
  let w =
    make_world cfg (Topologies.fig2 ())
      ~flows:[ World.flow ~src:0 ~dst:4 ~path:Topologies.fig2_config_b () ]
  in
  let monitor = Harness.Invariants.create w in
  let flow = Option.get (World.flow_of_pair w ~src:0 ~dst:4) in
  let fid = flow.P4update.Controller.flow_id in
  P4update.Controller.bump_version w.World.controller ~flow_id:fid;
  let prepared =
    P4update.Controller.prepare w.World.controller ~flow_id:fid
      ~new_path:[ 0; 1; 3; 4 ] ~update_type:P4update.Wire.Dl
      ~assume_old_path:Topologies.fig2_config_a ()
  in
  P4update.Controller.push w.World.controller prepared;
  {
    cx_world = w;
    cx_monitor = monitor;
    cx_flows = [ flow ];
    cx_expect = None;
    cx_horizon_ms = 500.0;
  }

(* Regression pin for DESIGN §4b fix 1 (the strictly-smaller-label check
   for inside-segment nodes with a live rule).  Three versions on the
   Fig. 2 topology:

     v1 = [0;1;2;3;4]   (installed; node 2 forwards 2->3)
     v2 = [0;1;2;4]     (changes only node 2's rule to 2->4)
     v3 = [0;1;3;2;4]   (DL; node 3 joins inside a segment draining
                         into gateway 2)

   The adversarial order delays v2's indication to node 2 past v3's, so
   2 never commits v2: when 2 (still at v1, forwarding 2->3) proposes
   its segment for v3, its old-distance label is the v1 one.  Node 3's
   v1 rule (3->4, distance 1) is NOT strictly farther than the
   proposer's label, which is exactly the situation where the proposer's
   still-old forwarding can route back through the joining node: with
   the check off, 3 commits 3->2 while 2 still forwards 2->3 — a loop.
   In the default delivery order v2 commits first and nothing goes
   wrong, which is why random testing missed it (DESIGN §4b). *)
let build_stale_label cfg =
  let w =
    make_world cfg (Topologies.fig2 ())
      ~flows:[ World.flow ~src:0 ~dst:4 ~path:Topologies.fig2_config_a () ]
  in
  let monitor = Harness.Invariants.create w in
  let flow = Option.get (World.flow_of_pair w ~src:0 ~dst:4) in
  let fid = flow.P4update.Controller.flow_id in
  ignore
    (P4update.Controller.update_flow w.World.controller ~flow_id:fid
       ~new_path:Topologies.fig2_config_b ~update_type:P4update.Wire.Sl ());
  Sim.schedule w.World.sim ~delay:0.5 (fun () ->
      ignore
        (P4update.Controller.update_flow w.World.controller ~flow_id:fid
           ~new_path:[ 0; 1; 3; 2; 4 ] ~update_type:P4update.Wire.Dl ()));
  {
    cx_world = w;
    cx_monitor = monitor;
    cx_flows = [ flow ];
    cx_expect = None;
    cx_horizon_ms = 500.0;
  }

(* §11 abort racing the update's own completion: one SL update is
   pushed and, mid-flight, the controller aborts it.  Depending on the
   delivery order the WDM beats or loses to any subset of staged
   commits and the success UFM: the update may end rescinded (the
   success landed — flow on the new path) or aborted (flow reverted to
   the old path, staged state discarded).  Both end states are legal;
   what every interleaving must preserve is Thm. 1-4 — no loop, no
   blackhole, per-packet coherence — which is exactly what
   [cx_expect = None] checks. *)
let abort_race_delay_ms = 2.0

let build_abort_race cfg =
  let w =
    make_world cfg (Topologies.fig2 ())
      ~flows:[ World.flow ~src:0 ~dst:4 ~path:Topologies.fig2_config_a () ]
  in
  let monitor = Harness.Invariants.create w in
  let flow = Option.get (World.flow_of_pair w ~src:0 ~dst:4) in
  let fid = flow.P4update.Controller.flow_id in
  ignore
    (P4update.Controller.update_flow w.World.controller ~flow_id:fid
       ~new_path:Topologies.fig2_config_b ~update_type:P4update.Wire.Sl ());
  Sim.schedule w.World.sim ~delay:abort_race_delay_ms (fun () ->
      ignore (P4update.Controller.abort_update w.World.controller ~flow_id:fid));
  {
    cx_world = w;
    cx_monitor = monitor;
    cx_flows = [ flow ];
    cx_expect = None;
    cx_horizon_ms = 500.0;
  }

let all =
  [
    {
      sc_name = "fig2a";
      sc_descr = "Fig. 2a SL update on the 5-node topology (Thm. 1-4, exhaustive)";
      sc_window_ms = 1.0;
      sc_guard = None;
      sc_build = build_fig2a;
    };
    {
      sc_name = "six-skip";
      sc_descr = "6-node skip-ahead: SL U3 overtakes DL U2 (Fig. 4)";
      sc_window_ms = 0.5;
      sc_guard = None;
      sc_build = build_six_skip;
    };
    {
      sc_name = "ruleless-gateway";
      sc_descr = "DESIGN 4b fix 2 pin: inconsistent view, ruleless segment egress";
      sc_window_ms = 1.0;
      sc_guard = Some P4update.Switch.Gateway_rule;
      sc_build = build_ruleless_gateway;
    };
    {
      sc_name = "stale-label";
      sc_descr = "DESIGN 4b fix 1 pin: stale inside-segment label, racing versions";
      sc_window_ms = 3.0;
      sc_guard = Some P4update.Switch.Inside_segment_label;
      sc_build = build_stale_label;
    };
    {
      sc_name = "abort-race";
      sc_descr = "WDM withdraw races staged commits and the success UFM (sec. 11)";
      sc_window_ms = 2.0;
      sc_guard = None;
      sc_build = build_abort_race;
    };
  ]

let find name = List.find_opt (fun s -> s.sc_name = name) all

(* A building never steps the simulation, so dropping the guard after
   [sc_build] is the same as building the switches without it. *)
let build ?(unsafe = false) sc cfg =
  let ctx = sc.sc_build cfg in
  (match sc.sc_guard with
   | Some guard when unsafe ->
     Array.iter
       (fun sw -> P4update.Switch.disable_guard sw guard)
       ctx.cx_world.World.switches
   | Some _ | None -> ());
  ctx
