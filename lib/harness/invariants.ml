(* The Thm. 1–4 invariant probes, shared by the chaos harness, the
   consistency property tests and the model checker ([lib/mc]):

   - committed versions per (switch, flow) strictly increase, reset only
     by a switch restart (Thm. 4 / Obs. 1);
   - no forwarding loop, ever (Thm. 2);
   - no blackhole at a node that never failed (Thm. 1);
   - no over-capacity link (Thm. 3). *)

module Sim = Dessim.Sim
module Graph = Topo.Graph

type violation = { v_time : float; v_flow : int; v_what : string }

(* Last committed versions, keyed by [node * Wire.flow_space + flow]. *)
module Itbl = Hashtbl.Make (Int)

let flow_space = P4update.Wire.flow_space

type monitor = {
  world : World.t;
  mutable violations : violation list; (* reverse order *)
  ever_failed : bool array;
  last_committed : int Itbl.t;
}

let record m ~time ~flow what =
  m.violations <- { v_time = time; v_flow = flow; v_what = what } :: m.violations;
  (* An invariant violation is the primary incident trigger: stamp it in
     the flight recorder and dump the retained window. *)
  Obs.Flight_recorder.note ~now:time ~kind:Obs.Flight_recorder.k_violation
    ~node:(-1) ~flow ~a:0 ~b:0;
  ignore (Obs.Flight_recorder.trigger ~now:time ~reason:"invariant-violation")

(* Installing the monitor wires the event-driven probes: commit hooks on
   every switch for version monotonicity, and a topology observer so a
   restarted node's wiped registers are not flagged as a version
   regression (and blackholes at ever-failed nodes are excused). *)
let create (w : World.t) =
  let n = Graph.node_count (Netsim.graph w.World.net) in
  let m =
    {
      world = w;
      violations = [];
      ever_failed = Array.make n false;
      last_committed = Itbl.create 64;
    }
  in
  Array.iteri
    (fun node sw ->
      P4update.Switch.on_commit sw (fun ~flow_id ~version ~time ->
          let key = (node * flow_space) + flow_id in
          (match Itbl.find m.last_committed key with
           | prev when version <= prev ->
             record m ~time ~flow:flow_id
               (Printf.sprintf "non-monotone commit at node %d: %d after %d" node
                  version prev)
           | _ | (exception Not_found) -> ());
          Itbl.replace m.last_committed key version))
    w.World.switches;
  Netsim.on_topology_event w.World.net (function
    | Netsim.Node_down n ->
      m.ever_failed.(n) <- true;
      Itbl.filter_map_inplace
        (fun key version -> if key / flow_space = n then None else Some version)
        m.last_committed
    | _ -> ());
  m

(* Structural checks at the current instant: blackhole / loop freedom
   (Thm. 1, 2) for the given flows and capacity freedom (Thm. 3). *)
let check_structural m (flows : P4update.Controller.flow list) =
  let w = m.world in
  let net = w.World.net in
  let time = Sim.now w.World.sim in
  List.iter
    (fun (f : P4update.Controller.flow) ->
      match
        Fwdcheck.trace net w.World.switches ~flow_id:f.P4update.Controller.flow_id
          ~src:f.P4update.Controller.src
      with
      | Fwdcheck.Reaches_egress _ -> ()
      | Fwdcheck.Loop cycle ->
        record m ~time ~flow:f.P4update.Controller.flow_id
          (Printf.sprintf "loop through [%s]"
             (String.concat ";" (List.map string_of_int cycle)))
      | Fwdcheck.Blackhole n ->
        if not (m.ever_failed.(n) || not (Netsim.node_is_up net ~node:n)) then
          record m ~time ~flow:f.P4update.Controller.flow_id
            (Printf.sprintf "blackhole at healthy node %d" n))
    flows;
  List.iter
    (fun (node, port, reserved, capacity) ->
      record m ~time ~flow:(-1)
        (Printf.sprintf "over-capacity at node %d port %d: %d > %d" node port
           reserved capacity))
    (Fwdcheck.link_violations net w.World.switches)

let violations m = List.rev m.violations

let violation_to_string v =
  Printf.sprintf "t=%.2fms flow=%d: %s" v.v_time v.v_flow v.v_what
