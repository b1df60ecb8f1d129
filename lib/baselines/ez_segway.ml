module Sim = Dessim.Sim

type plan_node = {
  pn_node : int;
  pn_new_port : int;
  pn_changed : bool;
  pn_notify : int;
  pn_in_loop : bool;
  pn_trigger : bool;
  pn_is_ingress : bool;
  pn_is_egress : bool;
  pn_priority : int;
}

type plan_flow = {
  pf_flow : int;
  pf_size : int;
  pf_new_path : int list;
  pf_nodes : plan_node list;
  pf_segment_orders : (int list * bool) list;
  pf_dependencies : (int * int) list;
}

type update_request = {
  ur_flow : int;
  ur_size : int;
  ur_old_path : int list;
  ur_new_path : int list;
}

(* ------------------------------------------------------------------ *)
(* Preparation                                                          *)
(* ------------------------------------------------------------------ *)

let distances_along path =
  let k = List.length path - 1 in
  List.mapi (fun i node -> (node, k - i)) path

(* Segment the new path at the nodes it shares with the old one, and
   classify each segment: in_loop when traversing it increases the
   distance w.r.t. the old path (the loop risk ez-Segway serializes). *)
let segments_of ~old_path ~new_path =
  let old_dist = distances_along old_path in
  let on_old node = List.mem_assoc node old_dist in
  let rec split acc current = function
    | [] -> List.rev acc
    | node :: rest ->
      if on_old node then (
        match current with
        | [] -> split acc [ node ] rest
        | _ -> split (List.rev (node :: current) :: acc) [ node ] rest)
      else split acc (node :: current) rest
  in
  let chunks = split [] [] new_path in
  List.map
    (fun seg ->
      let first = List.hd seg and last = List.nth seg (List.length seg - 1) in
      let in_loop = List.assoc last old_dist >= List.assoc first old_dist in
      (seg, in_loop))
    chunks

(* Full centralized dependency graph over the whole update batch: the
   quadratic computation the paper's Fig. 8b charges ez-Segway for. *)
type dependency_graph = {
  dg_moves : (int * (int * int)) array;
  dg_edges : (int * int) list;
  dg_in_cycle : bool array;
  dg_priority : (int, int) Hashtbl.t;
}

let build_dependency_graph net requests =
  let graph = Netsim.graph net in
  let links_of path =
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | _ -> []
    in
    pairs path
  in
  (* Residual capacity per directed link under the old assignment. *)
  let load = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun link ->
          Hashtbl.replace load link
            (Option.value (Hashtbl.find_opt load link) ~default:0 + r.ur_size))
        (links_of r.ur_old_path))
    requests;
  let residual (u, v) =
    int_of_float (Topo.Graph.capacity graph u v *. 100.0)
    - Option.value (Hashtbl.find_opt load (u, v)) ~default:0
  in
  (* Vertices: every entering move of every flow. *)
  let entering_of r =
    let old_links = links_of r.ur_old_path in
    List.filter (fun l -> not (List.mem l old_links)) (links_of r.ur_new_path)
  in
  let leaving_of r =
    let new_links = links_of r.ur_new_path in
    List.filter (fun l -> not (List.mem l new_links)) (links_of r.ur_old_path)
  in
  let moves =
    Array.of_list
      (List.concat_map (fun r -> List.map (fun l -> (r.ur_flow, l)) (entering_of r)) requests)
  in
  (* Edges: an entering move that does not fit within the residual depends
     on every move of another flow that leaves the same link. *)
  let edges = ref [] in
  Array.iteri
    (fun i (flow_i, link_i) ->
      let r_i = List.find (fun r -> r.ur_flow = flow_i) requests in
      if residual link_i < r_i.ur_size then
        Array.iteri
          (fun j (flow_j, _) ->
            if i <> j && flow_i <> flow_j then
              let r_j = List.find (fun r -> r.ur_flow = flow_j) requests in
              if List.mem link_i (leaving_of r_j) then edges := (i, j) :: !edges)
          moves)
    moves;
  let edges = !edges in
  (* Cycle detection (iterative DFS with colors) over the move graph. *)
  let n = Array.length moves in
  let adjacency = Array.make n [] in
  List.iter (fun (i, j) -> adjacency.(i) <- j :: adjacency.(i)) edges;
  let color = Array.make n 0 (* 0 white, 1 grey, 2 black *) in
  let in_cycle = Array.make n false in
  let rec dfs stack i =
    if color.(i) = 1 then
      (* Grey hit: everything on the stack down to [i] is in a cycle. *)
      let rec mark = function
        | [] -> ()
        | v :: rest ->
          in_cycle.(v) <- true;
          if v <> i then mark rest
      in
      mark stack
    else if color.(i) = 0 then begin
      color.(i) <- 1;
      List.iter (fun j -> dfs (i :: stack) j) adjacency.(i);
      color.(i) <- 2
    end
  in
  for i = 0 to n - 1 do
    if color.(i) = 0 then dfs [] i
  done;
  (* Three classes: 0 = pure enablers (others depend on them, they depend
     on nobody), 2 = dependent or cyclic moves, 1 = the rest. *)
  let depends = Array.make n false and enables = Array.make n false in
  List.iter
    (fun (i, j) ->
      depends.(i) <- true;
      enables.(j) <- true)
    edges;
  let priority = Hashtbl.create 16 in
  Array.iteri
    (fun i (flow, _) ->
      let cls =
        if in_cycle.(i) || depends.(i) then 2
        else if enables.(i) then 0
        else 1
      in
      let current = Option.value (Hashtbl.find_opt priority flow) ~default:0 in
      Hashtbl.replace priority flow (max current cls))
    moves;
  (* Flows without any entering move are plain class 1. *)
  List.iter
    (fun r ->
      if not (Hashtbl.mem priority r.ur_flow) then Hashtbl.replace priority r.ur_flow 1)
    requests;
  { dg_moves = moves; dg_edges = edges; dg_in_cycle = in_cycle; dg_priority = priority }

let prepare net ~congestion requests =
  let priority_of =
    if congestion then begin
      let dg = build_dependency_graph net requests in
      fun flow -> Option.value (Hashtbl.find_opt dg.dg_priority flow) ~default:1
    end
    else fun _ -> 0
  in
  List.map
    (fun r ->
      let segs = segments_of ~old_path:r.ur_old_path ~new_path:r.ur_new_path in
      (* A node's forwarding rule is the first hop of the segment its
         outgoing link lies in: every node of a segment except the last
         carries that segment's class. *)
      let in_loop_nodes =
        List.concat_map
          (fun (seg, in_loop) ->
            if not in_loop then []
            else match List.rev seg with _last :: body -> body | [] -> [])
          segs
      in
      let triggers =
        (* segment egress (last node) of every not_in_loop segment *)
        List.filter_map
          (fun (seg, in_loop) ->
            if in_loop then None else Some (List.nth seg (List.length seg - 1)))
          segs
      in
      let arr = Array.of_list r.ur_new_path in
      let k = Array.length arr - 1 in
      let old_next =
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
          | _ -> []
        in
        pairs r.ur_old_path
      in
      let nodes =
        List.mapi
          (fun i node ->
            let new_port =
              if i = k then P4update.Wire.port_local
              else Netsim.port_of_neighbor net ~node ~neighbor:arr.(i + 1)
            in
            let changed =
              if i = k then false (* egress keeps local delivery *)
              else
                match List.assoc_opt node old_next with
                | Some succ -> succ <> arr.(i + 1)
                | None -> true
            in
            {
              pn_node = node;
              pn_new_port = new_port;
              pn_changed = changed;
              pn_notify =
                (if i = 0 then P4update.Wire.port_none
                 else Netsim.port_of_neighbor net ~node ~neighbor:arr.(i - 1));
              pn_in_loop = List.mem node in_loop_nodes && i < k;
              pn_trigger = List.mem node triggers;
              pn_is_ingress = i = 0;
              pn_is_egress = i = k;
              pn_priority = priority_of r.ur_flow;
            })
          r.ur_new_path
      in
      (* The controller also encodes, per segment, the explicit update
         order (from the segment egress upstream) and, for every in_loop
         segment, which downstream segments must complete first. *)
      let pf_segment_orders =
        List.map (fun (seg, in_loop) -> (List.rev seg, in_loop)) segs
      in
      let pf_dependencies =
        List.concat
          (List.mapi
             (fun i (_, in_loop) ->
               if not in_loop then []
               else List.filteri (fun j _ -> j > i) segs |> List.mapi (fun off _ -> (i, i + 1 + off)))
             segs)
      in
      {
        pf_flow = r.ur_flow;
        pf_size = r.ur_size;
        pf_new_path = r.ur_new_path;
        pf_nodes = nodes;
        pf_segment_orders;
        pf_dependencies;
      })
    requests

(* ------------------------------------------------------------------ *)
(* Runtime                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-node, per-flow runtime state of the local agent. *)
type node_flow_state = {
  mutable s_plan : plan_node option;
  mutable s_installed : bool; (* rule for the current update committed *)
  mutable s_installing : bool;
  mutable s_token_held : bool; (* AllDone token waiting for our install *)
  mutable s_size : int;
  mutable s_waiters : (unit -> unit) list; (* continuations queued behind an in-flight install *)
  mutable s_pending_token : bool; (* token arrived before the install message *)
  mutable s_pending_wave : bool;  (* GoodToMove arrived before the install message *)
  mutable s_retries : int; (* capacity retries so far *)
}

type t = {
  net : Netsim.t;
  congestion : bool;
  agents : Agent.t array;
  states : (int * int, node_flow_state) Hashtbl.t; (* node, flow *)
  waiting : (int, (int * int) list) Hashtbl.t; (* node -> waiting (flow, port), FIFO *)
  completions : (int, float) Hashtbl.t;
  retry_interval_ms : float;
}

let agents t = t.agents

let state t ~node ~flow_id =
  match Hashtbl.find_opt t.states (node, flow_id) with
  | Some s -> s
  | None ->
    let s =
      {
        s_plan = None;
        s_installed = false;
        s_installing = false;
        s_token_held = false;
        s_size = 0;
        s_waiters = [];
        s_pending_token = false;
        s_pending_wave = false;
        s_retries = 0;
      }
    in
    Hashtbl.add t.states (node, flow_id) s;
    s

let token_msg ~flow_id ~src =
  { (P4update.Wire.control_default P4update.Wire.Unm) with flow_id; layer = 2; src_node = src }

let good_to_move ~flow_id ~src =
  { (P4update.Wire.control_default P4update.Wire.Unm) with flow_id; layer = 1; src_node = src }

(* Static-priority capacity gate: the move may proceed only if capacity
   suffices and no strictly-higher-priority flow is queued on this node
   for the same link. *)
let may_move t agent s =
  match s.s_plan with
  | None -> false
  | Some plan ->
    if not t.congestion then true
    else if plan.pn_new_port = P4update.Wire.port_local || not plan.pn_changed then true
    else begin
      let node = Agent.node agent in
      let queue = Option.value (Hashtbl.find_opt t.waiting node) ~default:[] in
      let blocked_by_priority =
        List.exists
          (fun (other_flow, port) ->
            port = plan.pn_new_port && other_flow <> 0
            &&
            match Hashtbl.find_opt t.states (node, other_flow) with
            | Some os ->
              (match os.s_plan with
               | Some op -> op.pn_priority < plan.pn_priority
               | None -> false)
            | None -> false)
          queue
      in
      (not blocked_by_priority) && Agent.remaining agent ~port:plan.pn_new_port >= s.s_size
    end

let rec try_install t agent flow_id ~then_continue =
  let node = Agent.node agent in
  let s = state t ~node ~flow_id in
  match s.s_plan with
  | None -> ()
  | Some plan ->
    if s.s_installed then then_continue ()
    else if s.s_installing then s.s_waiters <- s.s_waiters @ [ then_continue ]
    else if not plan.pn_changed then begin
      s.s_installed <- true;
      then_continue ()
    end
    else if may_move t agent s then begin
      s.s_installing <- true;
      (* leave the waiting queue if we were in it *)
      Hashtbl.replace t.waiting node
        (List.filter
           (fun (f, _) -> f <> flow_id)
           (Option.value (Hashtbl.find_opt t.waiting node) ~default:[]));
      Agent.install agent ~flow_id ~port:plan.pn_new_port ~size:s.s_size ~k:(fun () ->
          s.s_installing <- false;
          s.s_installed <- true;
          then_continue ();
          let queued = s.s_waiters in
          s.s_waiters <- [];
          List.iter (fun k -> k ()) queued;
          (* capacity may have been freed for queued flows on this node *)
          retry_waiters t agent)
    end
    else begin
      let queue = Option.value (Hashtbl.find_opt t.waiting node) ~default:[] in
      if not (List.exists (fun (f, _) -> f = flow_id) queue) then
        Hashtbl.replace t.waiting node (queue @ [ (flow_id, plan.pn_new_port) ]);
      s.s_retries <- s.s_retries + 1;
      (* Bounded retries: an unschedulable move must not spin forever. *)
      if s.s_retries < 5_000 then
        Sim.schedule (Netsim.sim t.net) ~delay:t.retry_interval_ms (fun () ->
            try_install t agent flow_id ~then_continue)
      else
        Hashtbl.replace t.waiting node
          (List.filter (fun (f, _) -> f <> flow_id)
             (Option.value (Hashtbl.find_opt t.waiting node) ~default:[]))
    end

and retry_waiters t agent =
  let node = Agent.node agent in
  let queue = Option.value (Hashtbl.find_opt t.waiting node) ~default:[] in
  List.iter
    (fun (flow_id, _) ->
      let s = state t ~node ~flow_id in
      try_install t agent flow_id ~then_continue:(fun () -> after_install t agent flow_id s))
    queue

and forward_token t agent flow_id =
  let node = Agent.node agent in
  let s = state t ~node ~flow_id in
  match s.s_plan with
  | None -> ()
  | Some plan ->
    if plan.pn_is_ingress then begin
      if not (Hashtbl.mem t.completions flow_id) then begin
        Hashtbl.add t.completions flow_id (Sim.now (Netsim.sim t.net));
        Agent.send_to_controller agent
          { (P4update.Wire.control_default P4update.Wire.Ufm) with flow_id; src_node = node }
      end
    end
    else Agent.send agent ~port:plan.pn_notify (token_msg ~flow_id ~src:node)

and after_install t agent flow_id s =
  (* If the AllDone token was parked here waiting for our install, release
     it now. *)
  if s.s_token_held then begin
    s.s_token_held <- false;
    forward_token t agent flow_id
  end

and handle_message t agent ~from_port:_ (c : P4update.Wire.control) =
  let node = Agent.node agent in
  match c.kind with
  | P4update.Wire.Uim -> handle_install_msg t agent node c
  | P4update.Wire.Unm ->
    let s = state t ~node ~flow_id:c.flow_id in
    if c.layer = 1 then process_wave t agent node c.flow_id s
    else process_token t agent node c.flow_id s
  | P4update.Wire.Cln -> Agent.handle_cleanup agent ~flow_id:c.flow_id ~version:c.version_new
  | P4update.Wire.Frm | P4update.Wire.Ufm | P4update.Wire.Wdm -> ()

(* GoodToMove: install now (not_in_loop pre-installation), then keep
   pushing it upstream inside the segment.  Parked until the node's own
   install message has arrived. *)
and process_wave t agent node flow_id s =
  match s.s_plan with
  | None -> s.s_pending_wave <- true
  | Some plan ->
    if not plan.pn_in_loop then
      try_install t agent flow_id ~then_continue:(fun () ->
          after_install t agent flow_id s;
          match s.s_plan with
          | Some p when not p.pn_is_ingress ->
            Agent.send agent ~port:p.pn_notify (good_to_move ~flow_id ~src:node)
          | Some _ | None -> ())

(* AllDone token: forward once our own rule is in. *)
and process_token t agent node flow_id s =
  ignore node;
  match s.s_plan with
  | None -> s.s_pending_token <- true
  | Some _ ->
    if s.s_installed then forward_token t agent flow_id
    else begin
      s.s_token_held <- true;
      try_install t agent flow_id ~then_continue:(fun () -> after_install t agent flow_id s)
    end

and handle_install_msg t agent node (c : P4update.Wire.control) =
  Agent.note_version agent ~flow_id:c.flow_id ~version:(max 2 c.version_new);
  let s = state t ~node ~flow_id:c.flow_id in
  let plan =
    {
      pn_node = node;
      pn_new_port = c.egress_port;
      pn_changed = c.counter land 1 = 1;
      pn_notify = c.notify_port;
      pn_in_loop = c.layer land 1 = 1;
      pn_trigger = c.layer land 2 = 2;
      pn_is_ingress = c.role land P4update.Wire.role_flow_ingress <> 0;
      pn_is_egress = c.role land P4update.Wire.role_flow_egress <> 0;
      pn_priority = c.counter lsr 1;
    }
  in
  s.s_plan <- Some plan;
  s.s_installed <- false;
  s.s_token_held <- false;
  s.s_size <- c.flow_size;
  if plan.pn_is_egress then begin
    s.s_installed <- true;
    (* The flow egress starts the AllDone token and, being the egress
       gateway of the last segment, that segment's GoodToMove wave when
       the segment is not_in_loop. *)
    if plan.pn_notify <> P4update.Wire.port_none then begin
      if plan.pn_trigger then
        Agent.send agent ~port:plan.pn_notify (good_to_move ~flow_id:c.flow_id ~src:node);
      Agent.send agent ~port:plan.pn_notify (token_msg ~flow_id:c.flow_id ~src:node)
    end
  end
  else if plan.pn_trigger && plan.pn_notify <> P4update.Wire.port_none then
    (* Egress gateway of a not_in_loop segment: start the segment's wave.
       Its own rule belongs to the segment downstream of it and follows
       that segment's discipline (wave or token). *)
    Agent.send agent ~port:plan.pn_notify (good_to_move ~flow_id:c.flow_id ~src:node);
  (* Release messages that raced ahead of this install message. *)
  if s.s_pending_wave then begin
    s.s_pending_wave <- false;
    process_wave t agent node c.flow_id s
  end;
  if s.s_pending_token then begin
    s.s_pending_token <- false;
    process_token t agent node c.flow_id s
  end

(* ------------------------------------------------------------------ *)
(* Construction and API                                                 *)
(* ------------------------------------------------------------------ *)

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
                  handle_message (Lazy.force t) agent ~from_port c));
        states = Hashtbl.create 256;
        waiting = Hashtbl.create 32;
        completions = Hashtbl.create 32;
        retry_interval_ms = 1.0;
      }
  in
  Lazy.force t

let register_flow t = Agent.register_flow t.agents

let push t plans =
  List.iter
    (fun pf ->
      Hashtbl.remove t.completions pf.pf_flow;
      List.iter
        (fun pn ->
          let msg =
            {
              (P4update.Wire.control_default P4update.Wire.Uim) with
              flow_id = pf.pf_flow;
              flow_size = pf.pf_size;
              egress_port = pn.pn_new_port;
              notify_port = pn.pn_notify;
              layer = (if pn.pn_in_loop then 1 else 0) lor (if pn.pn_trigger then 2 else 0);
              counter = (pn.pn_priority lsl 1) lor (if pn.pn_changed then 1 else 0);
              role =
                (if pn.pn_is_ingress then P4update.Wire.role_flow_ingress else 0)
                lor if pn.pn_is_egress then P4update.Wire.role_flow_egress else 0;
            }
          in
          Netsim.controller_transmit t.net ~to_:pn.pn_node (P4update.Wire.control_to_bytes msg))
        (List.rev pf.pf_nodes))
    plans

let schedule_updates t requests = push t (prepare t.net ~congestion:t.congestion requests)

let completion_time t ~flow_id = Hashtbl.find_opt t.completions flow_id

let trace t = Agent.trace t.agents
