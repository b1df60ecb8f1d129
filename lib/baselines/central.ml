module Sim = Dessim.Sim

type move = {
  m_flow : int;
  m_node : int;
  m_new_port : int;
  m_size : int;
  m_succ : int option; (* downstream successor on the new path, if any *)
  m_touch : bool; (* version note for an unchanged rule; no dependency *)
}

type flow_state = {
  f_id : int;
  f_src : int;
  f_dst : int;
  f_size : int;
  mutable f_path : int list;
}

type t = {
  net : Netsim.t;
  congestion : bool;
  agents : Agent.t array;
  flows : (int, flow_state) Hashtbl.t;
  mutable pending_moves : move list;
  mutable round_outstanding : int;
  mutable rounds : int;
  mutable done_time : float option;
  mutable version : int;
  mutable retries : int;
}

let completion_time t = t.done_time
let rounds_used t = t.rounds

(* ------------------------------------------------------------------ *)
(* Consistency analysis on the controller's view                        *)
(* ------------------------------------------------------------------ *)


(* Capacity feasibility of adding [move] given committed reservations and
   the moves already picked this round (which transiently hold both the
   old and the new link). *)
let capacity_ok t picked move =
  if not t.congestion then true
  else if move.m_new_port = P4update.Wire.port_local || move.m_new_port = P4update.Wire.port_none then true
  else begin
    let extra_this_round =
      List.fold_left
        (fun acc m ->
          if m.m_node = move.m_node && m.m_new_port = move.m_new_port then acc + m.m_size
          else acc)
        0 picked
    in
    let agent = t.agents.(move.m_node) in
    let current = Agent.port_of agent ~flow_id:move.m_flow in
    if current = move.m_new_port then true
    else
      Agent.remaining agent ~port:move.m_new_port - extra_this_round >= move.m_size
  end

(* Dependency rule of the state-of-the-art dependency-graph systems
   ([57], [42]): a rule change may only be scheduled once the flow's new
   downstream successor has completed its own change — downstream-first
   guarantees blackhole and loop freedom, and every dependency resolution
   takes a control-plane round trip.  Independent branches (and distinct
   flows) update in parallel within a round. *)
let pick_round t =
  let blocked_by_successor move =
    match move.m_succ with
    | None -> false
    | Some succ ->
      List.exists
        (fun m -> m.m_flow = move.m_flow && m.m_node = succ && not m.m_touch)
        t.pending_moves
  in
  let picked = ref [] in
  List.iter
    (fun move ->
          if move.m_touch || ((not (blocked_by_successor move)) && capacity_ok t !picked move) then
        picked := move :: !picked)
    t.pending_moves;
  List.rev !picked

(* ------------------------------------------------------------------ *)
(* Round execution                                                      *)
(* ------------------------------------------------------------------ *)

let rec start_round t =
  match pick_round t with
  | [] ->
    if t.pending_moves = [] then t.done_time <- Some (Sim.now (Netsim.sim t.net))
    else begin
      (* Capacity may still be held by cleanups in flight: poll again, up
         to a bounded number of attempts. *)
      t.retries <- t.retries + 1;
      if t.retries < 10_000 then
        Sim.schedule (Netsim.sim t.net) ~delay:5.0 (fun () -> start_round t)
    end
  | round ->
    t.rounds <- t.rounds + 1;
    t.round_outstanding <- List.length round;
    t.pending_moves <-
      List.filter (fun m -> not (List.memq m round)) t.pending_moves;
    List.iter
      (fun move ->
        let msg =
          {
            (P4update.Wire.control_default P4update.Wire.Uim) with
            flow_id = move.m_flow;
            version_new = t.version;
            egress_port = move.m_new_port;
            flow_size = move.m_size;
          }
        in
        Netsim.controller_transmit t.net ~to_:move.m_node (P4update.Wire.control_to_bytes msg))
      round

and ack_received t =
  t.round_outstanding <- t.round_outstanding - 1;
  if t.round_outstanding = 0 then
    if t.pending_moves = [] then t.done_time <- Some (Sim.now (Netsim.sim t.net))
    else start_round t

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let on_agent_message _t agent ~from_port:_ (c : P4update.Wire.control) =
  match c.kind with
  | P4update.Wire.Uim ->
    Agent.note_version agent ~flow_id:c.flow_id ~version:c.version_new;
    Agent.install agent ~flow_id:c.flow_id ~port:c.egress_port ~size:c.flow_size
      ~k:(fun () ->
        Agent.send_to_controller agent
          {
            (P4update.Wire.control_default P4update.Wire.Ufm) with
            flow_id = c.flow_id;
            version_new = c.version_new;
            src_node = Agent.node agent;
          })
  | P4update.Wire.Cln -> Agent.handle_cleanup agent ~flow_id:c.flow_id ~version:c.version_new
  | P4update.Wire.Unm | P4update.Wire.Frm | P4update.Wire.Ufm | P4update.Wire.Wdm -> ()

let create network ~congestion =
  let n = Topo.Graph.node_count (Netsim.graph network) in
  let rec t =
    lazy
      {
        net = network;
        congestion;
        agents =
          Array.init n (fun node ->
              Agent.create network ~node ~on_message:(fun agent ~from_port c ->
                  on_agent_message (Lazy.force t) agent ~from_port c));
        flows = Hashtbl.create 32;
        pending_moves = [];
        round_outstanding = 0;
        rounds = 0;
        done_time = None;
        version = 1;
        retries = 0;
      }
  in
  let t = Lazy.force t in
  Netsim.set_controller network (fun ~from:_ bytes ->
      match P4update.Wire.control_of_bytes bytes with
      | Some c when c.kind = P4update.Wire.Ufm -> ack_received t
      | Some _ | None -> ());
  t

let register_flow t ~src ~dst ~size ~path =
  let flow_id = Agent.register_flow t.agents ~src ~dst ~size ~path in
  Hashtbl.replace t.flows flow_id { f_id = flow_id; f_src = src; f_dst = dst; f_size = size; f_path = path };
  flow_id

let moves_of_update t ~flow_id ~new_path =
  let flow = Hashtbl.find t.flows flow_id in
  let arr = Array.of_list new_path in
  let moves = ref [] in
  Array.iteri
    (fun i node ->
      let port =
        if i = Array.length arr - 1 then P4update.Wire.port_local
        else Netsim.port_of_neighbor t.net ~node ~neighbor:arr.(i + 1)
      in
      let succ = if i = Array.length arr - 1 then None else Some arr.(i + 1) in
      let touch = Agent.port_of t.agents.(node) ~flow_id = port in
      (* Unchanged nodes still receive a (no-op) command so they know the
         new version and ignore stray cleanups. *)
      moves :=
        { m_flow = flow_id; m_node = node; m_new_port = port; m_size = flow.f_size;
          m_succ = succ; m_touch = touch }
        :: !moves)
    arr;
  flow.f_path <- new_path;
  List.rev !moves

let schedule_updates t updates =
  t.version <- t.version + 1;
  t.rounds <- 0;
  t.retries <- 0;
  t.done_time <- None;
  t.pending_moves <-
    List.concat_map (fun (flow_id, new_path) -> moves_of_update t ~flow_id ~new_path) updates;
  if t.pending_moves = [] then t.done_time <- Some (Sim.now (Netsim.sim t.net))
  else start_round t

let trace t ~flow_id ~src = Agent.trace t.agents ~flow_id ~src
