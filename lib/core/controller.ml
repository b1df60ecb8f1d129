module Sim = Dessim.Sim

type flow = {
  flow_id : int;
  src : int;
  dst : int;
  size : int;
  mutable version : int;
  mutable path : int list;
  mutable last_type : Wire.update_type;
}

type prepared = {
  p_flow : int;
  p_version : int;
  p_type : Wire.update_type;
  p_uims : (int * Wire.control) list;
  p_segments : Segment.t option;
  p_old_path : int list;
}

type report = {
  r_flow : int;
  r_version : int;
  r_status : int;
  r_node : int;
  r_time : float;
}

type recovery_stats = {
  retransmissions : int;
  reroutes : int;
  resyncs : int;
  aborts : int;
  give_ups : int;
}

(* The counters live in the network's Obs.Metrics registry so Traced,
   Chaos and Soak all read one source; the handles are hoisted here so
   the hot paths stay single field mutations. *)
type recovery = {
  rc_timeout_ms : float;
  rc_max_retries : int;
  rc_deadline_ms : float option;
  rc_retransmissions : Obs.Metrics.counter;
  rc_reroutes : Obs.Metrics.counter;
  rc_resyncs : Obs.Metrics.counter;
  rc_aborts : Obs.Metrics.counter;
  rc_give_ups : Obs.Metrics.counter;
}

(* Traversal state shared across preparations: the topology's controller
   node (stamped into every UIM as [src_node]) and a per-node
   neighbor→port index.  Ports are static for a network's lifetime, so
   the index is built once on first use and reused by every subsequent
   [prepare]/[prepare_batch] — labelling a path becomes pure hash
   lookups instead of a linear port-table scan per hop. *)
type prep_cache = {
  pc_src_node : int;
  pc_port_of : (int, int) Hashtbl.t array; (* node -> (neighbor -> port) *)
}

type t = {
  net : Netsim.t;
  flow_db : (int, flow) Hashtbl.t;
  mutable report_log : report list; (* reverse order *)
  completions : (int * int, float) Hashtbl.t; (* (flow, version) -> first success *)
  mutable report_hooks : (report -> unit) list;
  mutable push_hooks : (flow_id:int -> version:int -> unit) list;
  mutable alarms : int;
  mutable auto_route : bool;
  mutable auto_retrigger : bool;
  mutable allow_consecutive_dl : bool;
  mutable recovery : recovery option; (* §11 recovery loop, opt-in *)
  last_pushed : (int, prepared) Hashtbl.t; (* flow id -> last pushed update *)
  retriggers : (int * int, int) Hashtbl.t; (* flow id, version -> count *)
  retrigger_times : (int * int, float) Hashtbl.t;
  aborted : (int, int) Hashtbl.t; (* flow id -> highest aborted version *)
  mutable prep : prep_cache option; (* built lazily on first prepare *)
}

let sl_threshold = 5
let default_flow_size = 100
let retrigger_budget = 3

let net t = t.net

let register_flow ?(version = 1) ?flow_id t ~src ~dst ~size ~path =
  let flow_id =
    match flow_id with
    | Some id ->
      if id < 0 || id >= Wire.flow_space then
        invalid_arg "Controller.register_flow: flow id out of flow space";
      id
    | None -> Topo.Traffic.flow_id_of_pair ~src ~dst land (Wire.flow_space - 1)
  in
  let flow = { flow_id; src; dst; size; version; path; last_type = Wire.Sl } in
  Hashtbl.replace t.flow_db flow_id flow;
  flow

let set_auto_route t enabled = t.auto_route <- enabled
let set_auto_retrigger t enabled = t.auto_retrigger <- enabled
let set_allow_consecutive_dl t enabled = t.allow_consecutive_dl <- enabled

let find_flow t ~flow_id = Hashtbl.find_opt t.flow_db flow_id
let flows t = Hashtbl.fold (fun _ f acc -> f :: acc) t.flow_db []

(* §7.5: SL for updates that install new rules on at most [sl_threshold]
   nodes, all of them within forward segments; DL otherwise.  A flow whose
   previous update was dual-layer must take SL next (Thm. 4). *)
let choose_type t ~old_path ~new_path ~last_type =
  if last_type = Wire.Dl && not t.allow_consecutive_dl then Wire.Sl
  else
    let seg = Segment.compute ~old_path ~new_path in
    let all_forward =
      List.for_all (fun s -> s.Segment.direction = Segment.Forward) seg.Segment.segments
    in
    let fresh_nodes =
      (* Nodes that get new forwarding rules: everything except nodes that
         keep the same successor in both paths. *)
      let next_of path =
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
          | _ -> []
        in
        pairs path
      in
      let old_next = next_of old_path in
      List.filter
        (fun (node, succ) ->
          match List.assoc_opt node old_next with
          | Some old_succ -> old_succ <> succ
          | None -> true)
        (next_of new_path)
    in
    if all_forward && List.length fresh_nodes <= sl_threshold then Wire.Sl else Wire.Dl

let bump_version t ~flow_id =
  match find_flow t ~flow_id with
  | Some flow -> flow.version <- flow.version + 1
  | None -> ()

let prep_cache t =
  match t.prep with
  | Some c -> c
  | None ->
    let g = Netsim.graph t.net in
    let pc_port_of =
      Array.init (Topo.Graph.node_count g) (fun node ->
          let ports = Hashtbl.create 8 in
          for port = 0 to Netsim.port_count t.net ~node - 1 do
            match Netsim.neighbor_of_port t.net ~node ~port with
            | Some neighbor -> Hashtbl.replace ports neighbor port
            | None -> ()
          done;
          ports)
    in
    let c =
      { pc_src_node = (Netsim.topology t.net).Topo.Topologies.controller; pc_port_of }
    in
    t.prep <- Some c;
    c

let cached_port_of cache ~node ~neighbor =
  match Hashtbl.find_opt cache.pc_port_of.(node) neighbor with
  | Some port -> port
  | None ->
    invalid_arg
      (Printf.sprintf "Netsim.port_of_neighbor: %d is not adjacent to %d" neighbor node)

(* Core of [prepare], parameterized over the shared cache so a batch
   builds it once. *)
let prepare_with t cache ~flow_id ~new_path ?update_type ?assume_old_path
    ?(two_phase = false) () =
  let flow =
    match find_flow t ~flow_id with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Controller.prepare: unknown flow %d" flow_id)
  in
  let old_path = Option.value assume_old_path ~default:flow.path in
  let p_type =
    match update_type with
    | Some ut -> ut
    | None -> choose_type t ~old_path ~new_path ~last_type:flow.last_type
  in
  let labels = Label.of_path_with ~port_of:(cached_port_of cache) new_path in
  let labels, segments =
    match p_type with
    | Wire.Sl -> (labels, None)
    | Wire.Dl ->
      let seg = Segment.compute ~old_path ~new_path in
      (Segment.annotate seg labels, Some seg)
  in
  let version = flow.version + 1 in
  let uims =
    List.map
      (fun (l : Label.node_label) ->
        ( l.node,
          {
            (Wire.control_default Wire.Uim) with
            flow_id;
            version_new = version;
            dist_new = l.dist_new;
            update_type = p_type;
            flow_size = flow.size;
            egress_port = l.egress_port;
            notify_port = l.notify_port;
            role = (l.role lor if two_phase then Wire.role_two_phase else 0);
            src_node = cache.pc_src_node;
          } ))
      labels
  in
  {
    p_flow = flow_id;
    p_version = version;
    p_type;
    p_uims = uims;
    p_segments = segments;
    p_old_path = old_path;
  }

let prepare t ~flow_id ~new_path ?update_type ?assume_old_path ?two_phase () =
  prepare_with t (prep_cache t) ~flow_id ~new_path ?update_type ?assume_old_path
    ?two_phase ()

let prepare_batch t requests =
  let cache = prep_cache t in
  List.map
    (fun (flow_id, new_path) -> prepare_with t cache ~flow_id ~new_path ())
    requests

let reports t = List.rev t.report_log

let completion_time t ~flow_id ~version = Hashtbl.find_opt t.completions (flow_id, version)

let on_report t f = t.report_hooks <- t.report_hooks @ [ f ]
let on_push t f = t.push_hooks <- t.push_hooks @ [ f ]
let alarm_count t = t.alarms

let recovery_stats t =
  Option.map
    (fun rc ->
      {
        retransmissions = Obs.Metrics.count rc.rc_retransmissions;
        reroutes = Obs.Metrics.count rc.rc_reroutes;
        resyncs = Obs.Metrics.count rc.rc_resyncs;
        aborts = Obs.Metrics.count rc.rc_aborts;
        give_ups = Obs.Metrics.count rc.rc_give_ups;
      })
    t.recovery

let aborted_version t ~flow_id = Hashtbl.find_opt t.aborted flow_id

let path_alive t path =
  let rec ok = function
    | [ a ] -> Netsim.node_is_up t.net ~node:a
    | a :: (b :: _ as rest) ->
      Netsim.node_is_up t.net ~node:a && Netsim.link_is_up t.net a b && ok rest
    | [] -> true
  in
  ok path

let path_uses_link path u v =
  let rec go = function
    | a :: (b :: _ as rest) ->
      (a = u && b = v) || (a = v && b = u) || go rest
    | _ -> false
  in
  go path

let send_uims t prepared =
  (* Egress first: the chain of notifications starts at the egress, so its
     indication should leave the (serialized) controller first. *)
  List.iter
    (fun (node, uim) ->
      (if Obs.Trace.enabled () then begin
         (* One flight span per in-flight indication: a retransmission only
            opens a fresh span once the previous flight has landed (the
            switch pops the anchor on arrival). *)
         let key =
           Wire.span_key_uim ~flow_id:uim.Wire.flow_id
             ~version:uim.Wire.version_new ~node
         in
         if Obs.Trace.anchor_get key = 0 then
           Obs.Trace.anchor_set key
             (Obs.Trace.span_begin ~cat:"ctl" "uim.flight"
                ~parent:
                  (Obs.Trace.anchor_get
                     (Wire.span_key_update ~flow_id:uim.Wire.flow_id
                        ~version:uim.Wire.version_new))
                ~attrs:
                  [
                    Obs.Trace.flow uim.Wire.flow_id;
                    Obs.Trace.version uim.Wire.version_new;
                    Obs.Trace.int "to" node;
                  ])
       end);
      Netsim.controller_transmit t.net ~to_:node (Wire.control_to_bytes uim))
    (List.rev prepared.p_uims)

(* ------------------------------------------------------------------ *)
(* §11 abort: bounded-retry rollback.

   When retries and reroutes are exhausted (or an operator deadline
   passes), the controller gives up on the in-flight version: it sends a
   withdraw (WDM) to every node of the pushed path, discarding staged
   new-version UIB state there, and reverts the Flow DB to the old path.
   This is safe because P4Update never removes old rules before final
   verification: uncommitted nodes still forward on the old version, and
   any node that did commit has (by downstream-first ordering) a
   committed chain to the egress — so traffic is always either on the
   old path or on a legal old-prefix/new-suffix hybrid, and Thm. 1-4
   hold throughout.  The flow's version counter is NOT rolled back: the
   aborted version stays burned, so the next update strictly supersedes
   every staged remnant of it. *)
(* ------------------------------------------------------------------ *)

let abort_update ?(reason = "operator") t ~flow_id =
  match (find_flow t ~flow_id, Hashtbl.find_opt t.last_pushed flow_id) with
  | Some flow, Some p
    when flow.version = p.p_version
         && completion_time t ~flow_id ~version:p.p_version = None
         && Option.value (Hashtbl.find_opt t.aborted flow_id) ~default:0 < p.p_version
    ->
    let version = p.p_version in
    Hashtbl.replace t.aborted flow_id version;
    (match t.recovery with
     | Some rc -> Obs.Metrics.incr rc.rc_aborts
     | None -> ());
    (let now = Sim.now (Netsim.sim t.net) in
     Obs.Flight_recorder.note ~now ~kind:Obs.Flight_recorder.k_abort ~node:(-1)
       ~flow:flow_id ~a:version ~b:0;
     ignore (Obs.Flight_recorder.trigger ~now ~reason:"abort"));
    (if Obs.Trace.enabled () then begin
       Obs.Trace.instant ~cat:"recovery" "recovery.abort"
         ~parent:(Obs.Trace.anchor_get (Wire.span_key_update ~flow_id ~version))
         ~attrs:
           [
             Obs.Trace.flow flow_id;
             Obs.Trace.version version;
             Obs.Trace.str "reason" reason;
           ];
       (* Indications dropped in flight leave their spans anchored; the
          abort is where those flights end. *)
       List.iter
         (fun (node, _) ->
           Obs.Trace.span_end
             (Obs.Trace.anchor_pop (Wire.span_key_uim ~flow_id ~version ~node))
             ~attrs:[ Obs.Trace.str "outcome" "aborted" ])
         p.p_uims;
       Obs.Trace.span_end
         (Obs.Trace.anchor_pop (Wire.span_key_update ~flow_id ~version))
         ~attrs:[ Obs.Trace.str "outcome" "aborted" ]
     end);
    (* Withdraw the staged state along the pushed path.  Committed nodes
       ignore the message; their rules stay until a higher version
       supersedes them. *)
    List.iter
      (fun (node, _) ->
        Netsim.controller_transmit t.net ~to_:node
          (Wire.control_to_bytes
             { (Wire.control_default Wire.Wdm) with flow_id; version_new = version }))
      (List.rev p.p_uims);
    flow.path <- p.p_old_path;
    true
  | _ -> false

(* Exhaustion (or deadline): count the give-up, then abort. *)
let give_up t rc ~flow_id ~version ~why =
  Obs.Metrics.incr rc.rc_give_ups;
  (let now = Sim.now (Netsim.sim t.net) in
   Obs.Flight_recorder.note ~now ~kind:Obs.Flight_recorder.k_give_up ~node:(-1)
     ~flow:flow_id ~a:version ~b:0;
   ignore (Obs.Flight_recorder.trigger ~now ~reason:"give-up"));
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~cat:"recovery" "recovery.give_up"
      ~parent:(Obs.Trace.anchor_get (Wire.span_key_update ~flow_id ~version))
      ~attrs:
        [ Obs.Trace.flow flow_id; Obs.Trace.version version; Obs.Trace.str "why" why ];
  ignore (abort_update ~reason:why t ~flow_id)

(* ------------------------------------------------------------------ *)
(* Update execution and the §11 recovery loop.

   [push] arms a per-flow timeout when recovery is enabled.  On expiry
   with no success UFM recorded, the controller either retransmits the
   same (flow, version) UIM set — duplicates are absorbed by the data
   plane's version checks, so retransmission is idempotent — with
   exponential backoff, or, when the pushed path lost a link or node,
   re-labels and re-segments the flow around the failure ([reroute]).
   Topology observers drive the event-based half: link/node failures
   reroute affected flows immediately, and a restarted switch gets its
   UIB re-synced from the NIB by re-deploying the current path at a
   fresh version ([resync]). *)
(* ------------------------------------------------------------------ *)

let rec push t prepared =
  (match find_flow t ~flow_id:prepared.p_flow with
   | Some flow ->
     flow.version <- prepared.p_version;
     flow.path <- List.map fst prepared.p_uims;
     flow.last_type <- prepared.p_type
   | None -> ());
  Hashtbl.replace t.last_pushed prepared.p_flow prepared;
  (* Observers (the traffic auditor) hear about EVERY push — including
     the recovery loop's internal reroutes and resyncs, which never pass
     through a caller's hands; without this their paths would be invisible
     to per-packet classification. *)
  List.iter
    (fun f -> f ~flow_id:prepared.p_flow ~version:prepared.p_version)
    t.push_hooks;
  Obs.Flight_recorder.note ~now:(Sim.now (Netsim.sim t.net))
    ~kind:Obs.Flight_recorder.k_push ~node:(-1) ~flow:prepared.p_flow
    ~a:prepared.p_version ~b:(List.length prepared.p_uims);
  (* Root span of the update's causal tree; ended by the success UFM. *)
  if Obs.Trace.enabled () then
    Obs.Trace.anchor_set
      (Wire.span_key_update ~flow_id:prepared.p_flow ~version:prepared.p_version)
      (Obs.Trace.span_begin ~cat:"update" "update"
         ~attrs:
           [
             Obs.Trace.flow prepared.p_flow;
             Obs.Trace.version prepared.p_version;
             Obs.Trace.str "type"
               (match prepared.p_type with Wire.Sl -> "sl" | Wire.Dl -> "dl");
             Obs.Trace.int "nodes" (List.length prepared.p_uims);
           ]);
  send_uims t prepared;
  arm_recovery t ~flow_id:prepared.p_flow ~version:prepared.p_version ~attempt:0;
  (* Operator deadline: an absolute abort timer per pushed update. *)
  (match t.recovery with
   | Some { rc_deadline_ms = Some deadline; _ } ->
     let flow_id = prepared.p_flow and version = prepared.p_version in
     Sim.schedule (Netsim.sim t.net) ~delay:deadline (fun () ->
         match (t.recovery, find_flow t ~flow_id) with
         | Some rc, Some flow
           when flow.version = version
                && completion_time t ~flow_id ~version = None
                && Option.value (Hashtbl.find_opt t.aborted flow_id) ~default:0 < version
           -> give_up t rc ~flow_id ~version ~why:"deadline"
         | _ -> ())
   | Some { rc_deadline_ms = None; _ } | None -> ())

and update_flow t ~flow_id ~new_path ?update_type ?two_phase () =
  let prepared = prepare t ~flow_id ~new_path ?update_type ?two_phase () in
  push t prepared;
  prepared.p_version

and arm_recovery t ~flow_id ~version ~attempt =
  match t.recovery with
  | None -> ()
  | Some rc ->
    let delay = rc.rc_timeout_ms *. (2.0 ** float_of_int attempt) in
    Sim.schedule (Netsim.sim t.net) ~delay (fun () ->
        match find_flow t ~flow_id with
        | Some flow
          when flow.version = version
               && completion_time t ~flow_id ~version = None
               && Option.value (Hashtbl.find_opt t.aborted flow_id) ~default:0 < version
          ->
          if attempt >= rc.rc_max_retries then
            (* Retries exhausted: no silent drop — give up explicitly and
               roll the flow back to its old path. *)
            give_up t rc ~flow_id ~version ~why:"retries-exhausted"
          else if not (path_alive t flow.path) then begin
            reroute t flow;
            (* Reroute found no surviving alternative (version unchanged):
               keep the clock running so the update eventually aborts
               instead of wedging half-deployed forever. *)
            if flow.version = version then
              arm_recovery t ~flow_id ~version ~attempt:(attempt + 1)
          end
          else begin
            (match Hashtbl.find_opt t.last_pushed flow_id with
             | Some p when p.p_version = version ->
               Obs.Metrics.incr rc.rc_retransmissions;
               Obs.Flight_recorder.note ~now:(Sim.now (Netsim.sim t.net))
                 ~kind:Obs.Flight_recorder.k_retransmit ~node:(-1) ~flow:flow_id
                 ~a:version ~b:attempt;
               if Obs.Trace.enabled () then
                 Obs.Trace.instant ~cat:"recovery" "recovery.retransmit"
                   ~parent:
                     (Obs.Trace.anchor_get (Wire.span_key_update ~flow_id ~version))
                   ~attrs:
                     [
                       Obs.Trace.flow flow_id;
                       Obs.Trace.version version;
                       Obs.Trace.int "attempt" attempt;
                     ];
               send_uims t p
             | Some _ | None -> ());
            arm_recovery t ~flow_id ~version ~attempt:(attempt + 1)
          end
        | Some _ | None -> ())

and reroute t (flow : flow) =
  match t.recovery with
  | None -> ()
  | Some rc ->
    let g = Netsim.graph t.net in
    let node_ok n = Netsim.node_is_up t.net ~node:n in
    let edge_ok a b = Netsim.link_is_up t.net a b in
    (match
       Topo.Graph.shortest_path_avoiding g ~src:flow.src ~dst:flow.dst ~node_ok ~edge_ok
     with
     | Some new_path when new_path <> flow.path ->
       Obs.Metrics.incr rc.rc_reroutes;
       Obs.Flight_recorder.note ~now:(Sim.now (Netsim.sim t.net))
         ~kind:Obs.Flight_recorder.k_reroute ~node:(-1) ~flow:flow.flow_id
         ~a:flow.version ~b:0;
       if Obs.Trace.enabled () then
         Obs.Trace.instant ~cat:"recovery" "recovery.reroute"
           ~attrs:[ Obs.Trace.flow flow.flow_id; Obs.Trace.version flow.version ];
       ignore (update_flow t ~flow_id:flow.flow_id ~new_path ())
     | Some _ | None ->
       (* No surviving alternative (or already on it): wait for a restore
          event; [resync]/[kick] picks the flow up again. *)
       ())

(* A restarted switch lost its UIB: re-deploy the flow's current path at
   a fresh version, which re-installs rules, re-reserves capacity and
   regenerates the notification chain end to end. *)
and resync t (flow : flow) =
  match t.recovery with
  | None -> ()
  | Some rc ->
    Obs.Metrics.incr rc.rc_resyncs;
    Obs.Flight_recorder.note ~now:(Sim.now (Netsim.sim t.net))
      ~kind:Obs.Flight_recorder.k_resync ~node:(-1) ~flow:flow.flow_id
      ~a:flow.version ~b:0;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"recovery" "recovery.resync"
        ~attrs:[ Obs.Trace.flow flow.flow_id; Obs.Trace.version flow.version ];
    ignore (update_flow t ~flow_id:flow.flow_id ~new_path:flow.path ~update_type:Wire.Sl ())

(* A restored link makes a stalled update viable again: retransmit (the
   backoff timers may have run out while the path was dead). *)
and kick t (flow : flow) =
  (* An aborted version stays aborted: a restored link must not resurrect
     the withdrawn staged state (the switches would reject it anyway). *)
  if
    completion_time t ~flow_id:flow.flow_id ~version:flow.version = None
    && Option.value (Hashtbl.find_opt t.aborted flow.flow_id) ~default:0 < flow.version
  then
    if path_alive t flow.path then begin
      (match t.recovery, Hashtbl.find_opt t.last_pushed flow.flow_id with
       | Some rc, Some p when p.p_version = flow.version ->
         Obs.Metrics.incr rc.rc_retransmissions;
         Obs.Flight_recorder.note ~now:(Sim.now (Netsim.sim t.net))
           ~kind:Obs.Flight_recorder.k_retransmit ~node:(-1) ~flow:flow.flow_id
           ~a:flow.version ~b:0;
         send_uims t p;
         arm_recovery t ~flow_id:flow.flow_id ~version:flow.version ~attempt:1
       | _ -> ())
    end
    else reroute t flow

let flows_sorted t =
  List.sort (fun a b -> compare a.flow_id b.flow_id) (flows t)

(* Digest of the controller's flow database and retrigger bookkeeping for
   the model checker's state pruning.  Sorted so that hash-table
   insertion history does not leak into the fingerprint. *)
let fingerprint t =
  let flow_part =
    List.fold_left
      (fun acc f ->
        (acc * 31)
        lxor Hashtbl.hash
              (f.flow_id, f.version, f.path, Wire.update_type_to_int f.last_type))
      5 (flows_sorted t)
  in
  let retrigger_part =
    Hashtbl.fold (fun k v acc -> Hashtbl.hash (k, v) :: acc) t.retriggers []
    |> List.sort compare
    |> List.fold_left (fun acc x -> (acc * 31) lxor x) 7
  in
  let aborted_part =
    Hashtbl.fold (fun k v acc -> Hashtbl.hash (k, v) :: acc) t.aborted []
    |> List.sort compare
    |> List.fold_left (fun acc x -> (acc * 31) lxor x) 11
  in
  (flow_part * 131) lxor retrigger_part lxor (aborted_part * 13) lxor (t.alarms * 97)

let flows_affected t ~uses = List.filter (fun f -> uses f.path) (flows_sorted t)

let handle_topo_event t = function
  | Netsim.Link_down (u, v) ->
    List.iter (reroute t) (flows_affected t ~uses:(fun p -> path_uses_link p u v))
  | Netsim.Node_down n ->
    List.iter (reroute t) (flows_affected t ~uses:(fun p -> List.mem n p))
  | Netsim.Node_up n -> List.iter (resync t) (flows_affected t ~uses:(fun p -> List.mem n p))
  | Netsim.Link_up (u, v) ->
    List.iter (kick t) (flows_affected t ~uses:(fun p -> path_uses_link p u v))

let enable_recovery ?(timeout_ms = 500.0) ?(max_retries = 6) ?deadline_ms t =
  if t.recovery = None then begin
    let m = Netsim.metrics t.net in
    t.recovery <-
      Some
        {
          rc_timeout_ms = timeout_ms;
          rc_max_retries = max_retries;
          rc_deadline_ms = deadline_ms;
          rc_retransmissions = Obs.Metrics.counter m "recovery.retransmissions";
          rc_reroutes = Obs.Metrics.counter m "recovery.reroutes";
          rc_resyncs = Obs.Metrics.counter m "recovery.resyncs";
          rc_aborts = Obs.Metrics.counter m "recovery.aborts";
          rc_give_ups = Obs.Metrics.counter m "recovery.give_ups";
        };
    Netsim.on_topology_event t.net (handle_topo_event t)
  end

(* Forget a flow entirely (soak churn): the Flow DB, push history and
   abort/retrigger bookkeeping are dropped so long-horizon runs return to
   their baseline footprint between bursts.  Installed data-plane rules
   stay — a stale rule can never violate the consistency invariants, and
   cleanup packets already released any reservations that matter. *)
let retire_flow t ~flow_id =
  let remove_flow_keys h =
    let keys =
      Hashtbl.fold (fun ((f, _) as k) _ acc -> if f = flow_id then k :: acc else acc) h []
    in
    List.iter (Hashtbl.remove h) keys
  in
  Hashtbl.remove t.flow_db flow_id;
  Hashtbl.remove t.last_pushed flow_id;
  Hashtbl.remove t.aborted flow_id;
  remove_flow_keys t.retriggers;
  remove_flow_keys t.retrigger_times

(* A new flow reported by the data plane (§6): compute a shortest path and
   deploy it egress-first with SL, so rules exist downstream before any
   node starts forwarding. *)
let route_new_flow t (c : Wire.control) =
  let src = c.src_node and dst = c.dist_new in
  let graph = Netsim.graph t.net in
  if src <> dst && dst < Topo.Graph.node_count graph then
    match Topo.Graph.shortest_path graph ~src ~dst with
    | None -> ()
    | Some path ->
      let flow = register_flow ~version:0 t ~src ~dst ~size:default_flow_size ~path in
      if flow.flow_id = c.flow_id then
        ignore (update_flow t ~flow_id:flow.flow_id ~new_path:path ~update_type:Wire.Sl ())
      else
        (* hash mismatch: the FRM did not come from this (src, dst) pair *)
        Hashtbl.remove t.flow_db flow.flow_id

(* §11 failure handling: re-push the indications of a timed-out update so
   the egress regenerates the notification chain. *)
let retrigger t (c : Wire.control) =
  match Hashtbl.find_opt t.last_pushed c.flow_id with
  | Some prepared
    when prepared.p_version = c.version_new
         && Option.value (Hashtbl.find_opt t.aborted c.flow_id) ~default:0
            < c.version_new ->
    let key = (c.flow_id, c.version_new) in
    let count = Option.value (Hashtbl.find_opt t.retriggers key) ~default:0 in
    let now = Sim.now (Netsim.sim t.net) in
    let recently =
      match Hashtbl.find_opt t.retrigger_times key with
      | Some last -> now -. last < 100.0 (* one re-push per alarm wave *)
      | None -> false
    in
    if count < retrigger_budget && not recently then begin
      Hashtbl.replace t.retriggers key (count + 1);
      Hashtbl.replace t.retrigger_times key now;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"recovery" "recovery.retrigger"
          ~parent:
            (Obs.Trace.anchor_get
               (Wire.span_key_update ~flow_id:c.flow_id ~version:c.version_new))
          ~attrs:[ Obs.Trace.flow c.flow_id; Obs.Trace.version c.version_new ];
      List.iter
        (fun (node, uim) ->
          Netsim.controller_transmit t.net ~to_:node (Wire.control_to_bytes uim))
        (List.rev prepared.p_uims)
    end
  | Some _ | None -> ()

(* Process one control-channel frame addressed to this controller.  Kept
   separate from [install_handler] so a caller that re-points the
   network's handler can still dispatch here. *)
let handle t ~from bytes =
  match Wire.control_of_bytes bytes with
      | Some c when c.kind = Wire.Ufm ->
        let report =
          {
            r_flow = c.flow_id;
            r_version = c.version_new;
            r_status = c.layer;
            r_node = from;
            r_time = Sim.now (Netsim.sim t.net);
          }
        in
        if report.r_status <> Wire.ufm_success then t.alarms <- t.alarms + 1;
        Obs.Flight_recorder.note ~now:report.r_time
          ~kind:Obs.Flight_recorder.k_report ~node:from ~flow:c.flow_id
          ~a:c.version_new ~b:report.r_status;
        (if Obs.Trace.enabled () then begin
           (* End the switch's UFM flight span, and on first success close
              the update's root span — the causal tree is complete. *)
           Obs.Trace.span_end
             (Obs.Trace.anchor_pop
                (Wire.span_key_ufm ~flow_id:c.flow_id ~version:c.version_new
                   ~node:from))
             ~attrs:[ Obs.Trace.int "status" report.r_status ];
           if report.r_status = Wire.ufm_success then
             Obs.Trace.span_end
               (Obs.Trace.anchor_pop
                  (Wire.span_key_update ~flow_id:c.flow_id ~version:c.version_new))
               ~attrs:[ Obs.Trace.int "ingress" from ]
         end);
        (* §11 abort racing a late success: the ingress committed before
           the withdraw reached it.  Downstream-first ordering means the
           whole path is then committed at this version — the withdraws
           were no-ops everywhere — so the update in fact succeeded:
           rescind the abort and restore the pushed path. *)
        (if report.r_status = Wire.ufm_success then
           match Hashtbl.find_opt t.aborted c.flow_id with
           | Some v when v = c.version_new -> (
             Hashtbl.remove t.aborted c.flow_id;
             match (find_flow t ~flow_id:c.flow_id, Hashtbl.find_opt t.last_pushed c.flow_id) with
             | Some flow, Some p when flow.version = v && p.p_version = v ->
               flow.path <- List.map fst p.p_uims;
               if Obs.Trace.enabled () then
                 Obs.Trace.instant ~cat:"recovery" "recovery.abort_rescinded"
                   ~attrs:[ Obs.Trace.flow c.flow_id; Obs.Trace.version v ]
             | _ -> ())
           | Some _ | None -> ());
        t.report_log <- report :: t.report_log;
        if report.r_status = Wire.ufm_success
           && not (Hashtbl.mem t.completions (report.r_flow, report.r_version))
        then Hashtbl.add t.completions (report.r_flow, report.r_version) report.r_time;
        List.iter (fun f -> f report) t.report_hooks;
        if report.r_status = Wire.ufm_alarm_timeout then begin
          (* §11: a watchdog alarm on a broken path means retransmission
             cannot help — re-label and re-segment around the failure. *)
          (match t.recovery, find_flow t ~flow_id:c.flow_id with
           | Some _, Some flow when not (path_alive t flow.path) -> reroute t flow
           | _ -> ());
          if t.auto_retrigger then retrigger t c
        end
      | Some c when c.kind = Wire.Frm ->
        if t.auto_route && find_flow t ~flow_id:c.flow_id = None then route_new_flow t c
      | Some _ | None -> ()

let install_handler t =
  Netsim.set_controller t.net (fun ~from bytes -> handle t ~from bytes)

let create network =
  let t =
    {
      net = network;
      flow_db = Hashtbl.create 64;
      report_log = [];
      completions = Hashtbl.create 64;
      report_hooks = [];
      push_hooks = [];
      alarms = 0;
      auto_route = true;
      auto_retrigger = false;
      allow_consecutive_dl = false;
      recovery = None;
      last_pushed = Hashtbl.create 32;
      retriggers = Hashtbl.create 32;
      retrigger_times = Hashtbl.create 32;
      aborted = Hashtbl.create 16;
      prep = None;
    }
  in
  install_handler t;
  t
