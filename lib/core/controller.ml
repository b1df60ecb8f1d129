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

(* Preparation scratch, built on first use and reused by every
   [prepare]/[prepare_batch].  [pc_stamp], [pc_old_dist] and
   [pc_old_succ] index the old path by node (hops to its egress, the
   successor on it or -1); an entry counts only while its stamp equals
   [pc_gen], which every indexing bumps, so the index needs no reset
   pass and an [invalid_arg] escaping mid-walk leaves nothing stale.
   [pc_path], [pc_egress] and [pc_notify] hold the new path and its two
   ports by position and grow with the longest path seen. *)
type prep_cache = {
  pc_src_node : int; (* the controller's node, stamped into every UIM *)
  pc_stamp : int array;
  pc_old_dist : int array;
  pc_old_succ : int array;
  mutable pc_gen : int;
  mutable pc_path : int array;
  mutable pc_egress : int array;
  mutable pc_notify : int array;
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
  mutable allow_consecutive_dl : bool;
  mutable recovery : recovery option; (* §11 recovery loop, opt-in *)
  last_pushed : (int, prepared) Hashtbl.t; (* flow id -> last pushed update *)
  aborted : (int, int) Hashtbl.t; (* flow id -> highest aborted version *)
  mutable prep : prep_cache option; (* built lazily on first prepare *)
}

let sl_threshold = 5
let default_flow_size = 100

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
let set_allow_consecutive_dl t enabled = t.allow_consecutive_dl <- enabled

let find_flow t ~flow_id = Hashtbl.find_opt t.flow_db flow_id
let flows t = Hashtbl.fold (fun _ f acc -> f :: acc) t.flow_db []

let bump_version t ~flow_id =
  match find_flow t ~flow_id with
  | Some flow -> flow.version <- flow.version + 1
  | None -> ()

let prep_cache t =
  match t.prep with
  | Some c -> c
  | None ->
    let n = Topo.Graph.node_count (Netsim.graph t.net) in
    let c =
      {
        pc_src_node = (Netsim.topology t.net).Topo.Topologies.controller;
        pc_stamp = Array.make n 0;
        pc_old_dist = Array.make n 0;
        pc_old_succ = Array.make n (-1);
        pc_gen = 0;
        pc_path = Array.make (n + 1) 0;
        pc_egress = Array.make (n + 1) 0;
        pc_notify = Array.make (n + 1) 0;
      }
    in
    t.prep <- Some c;
    c

(* Copy [path] into [c.pc_path] from position [i]; returns the last
   position, -1 for an empty path. *)
let rec load_path c i = function
  | [] -> i - 1
  | node :: rest ->
    if i = Array.length c.pc_path then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      c.pc_path <- grow c.pc_path;
      c.pc_egress <- grow c.pc_egress;
      c.pc_notify <- grow c.pc_notify
    end;
    c.pc_path.(i) <- node;
    load_path c (i + 1) rest

(* Index the old path from position [i] ([node] there, [k] its last
   position); a node's first occurrence wins.  Returns the last node. *)
let rec index_old c ~gen ~k i node rest =
  let first = c.pc_stamp.(node) <> gen in
  if first then begin
    c.pc_stamp.(node) <- gen;
    c.pc_old_dist.(node) <- k - i
  end;
  match rest with
  | [] ->
    if first then c.pc_old_succ.(node) <- -1;
    node
  | next :: rest ->
    if first then c.pc_old_succ.(node) <- next;
    index_old c ~gen ~k (i + 1) next rest

(* Every UIM is this record with the label fields set. *)
let uim_template = Wire.control_default Wire.Uim

(* The preparation kernel: the UIMs of the flow's next version.

   The §7.5 policy picks SL for updates that install new rules on at
   most [sl_threshold] nodes, all of them within forward segments, and
   DL otherwise; a flow whose previous update was dual-layer takes SL
   (Thm. 4).  Labels give node v_i of the new path v_0 … v_k the distance
   [k - i] and its ports toward v_(i+1) (forwarding) and v_(i-1)
   (notifications).  For DL, the nodes the new path shares with the old
   one are gateways; the stretch between two consecutive gateways is a
   segment, forward when it lowers the old-path distance, and each
   segment's egress gateway gets the segment-egress role.

   One forward walk over the new path, against the old path's node
   index, finds the ports, the fresh-rule count and the segment
   directions; the UIMs, gateway roles and segments are then consed
   from the tail, so every list comes out in path order.  The errors
   keep a fixed order (the tests pin it against the list pipeline this
   replaced): for a policy choice the endpoint checks come first, for an
   explicit DL they follow the port checks. *)
let prepare_with t c ~flow_id ~new_path ?update_type ?assume_old_path
    ?(two_phase = false) () =
  let flow =
    match find_flow t ~flow_id with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Controller.prepare: unknown flow %d" flow_id)
  in
  let old_path = Option.value assume_old_path ~default:flow.path in
  let policy, segmented =
    match update_type with
    | Some Wire.Sl -> (false, false)
    | Some Wire.Dl -> (false, true)
    | None ->
      let free = flow.last_type = Wire.Sl || t.allow_consecutive_dl in
      (free, free)
  in
  let k = load_path c 0 new_path in
  let path = c.pc_path in
  let bad_ends =
    if not segmented then None
    else begin
      c.pc_gen <- c.pc_gen + 1;
      match old_path with
      | [] -> Some "Segment.compute: empty path"
      | _ when k < 0 -> Some "Segment.compute: empty path"
      | first :: rest ->
        let last =
          index_old c ~gen:c.pc_gen ~k:(List.length old_path - 1) 0 first rest
        in
        if first <> path.(0) then Some "Segment.compute: ingress mismatch"
        else if last <> path.(k) then Some "Segment.compute: egress mismatch"
        else None
    end
  in
  (match bad_ends with Some msg when policy -> invalid_arg msg | _ -> ());
  if k < 0 then invalid_arg "Label.of_path: empty path";
  let gen = c.pc_gen in
  let walk_segments = match bad_ends with None -> segmented | Some _ -> false in
  let fresh = ref 0 and all_forward = ref true and prev_dist = ref 0 in
  let ingress_recurs = ref false in
  for i = 0 to k do
    let node = path.(i) in
    c.pc_egress.(i) <-
      (if i = k then Wire.port_local
       else Netsim.port_of_neighbor t.net ~node ~neighbor:path.(i + 1));
    c.pc_notify.(i) <-
      (if i = 0 then Wire.port_none
       else Netsim.port_of_neighbor t.net ~node ~neighbor:path.(i - 1));
    if walk_segments then begin
      let on_old = c.pc_stamp.(node) = gen in
      (* a node keeping its old successor needs no new rule *)
      if i < k && not (on_old && c.pc_old_succ.(node) = path.(i + 1)) then incr fresh;
      if on_old then begin
        let d = c.pc_old_dist.(node) in
        if i > 0 then begin
          if d >= !prev_dist then all_forward := false;
          if node = path.(0) then ingress_recurs := true
        end;
        prev_dist := d
      end
    end
  done;
  (match bad_ends with Some msg -> invalid_arg msg | None -> ());
  let p_type =
    match update_type with
    | Some ut -> ut
    | None ->
      if policy && not (!all_forward && !fresh <= sl_threshold) then Wire.Dl else Wire.Sl
  in
  let dl = p_type = Wire.Dl in
  let version = flow.version + 1 in
  let phase_role = if two_phase then Wire.role_two_phase else 0 in
  let uims = ref [] and gateways = ref [] and segments = ref [] and interior = ref [] in
  let seg_end = ref (-1) in
  for i = k downto 0 do
    let node = path.(i) in
    let gateway = dl && c.pc_stamp.(node) = gen in
    let role =
      (if i = k then Wire.role_flow_egress else 0)
      lor (if i = 0 then Wire.role_flow_ingress else 0)
      lor (if gateway then Wire.role_gateway else 0)
      lor (if gateway && (i > 0 || !ingress_recurs) then Wire.role_segment_egress else 0)
      lor phase_role
    in
    uims :=
      ( node,
        {
          uim_template with
          flow_id;
          version_new = version;
          dist_new = k - i;
          update_type = p_type;
          flow_size = flow.size;
          egress_port = c.pc_egress.(i);
          notify_port = c.pc_notify.(i);
          role;
          src_node = c.pc_src_node;
        } )
      :: !uims;
    if gateway then begin
      gateways := node :: !gateways;
      if !seg_end >= 0 then begin
        let egress_gateway = path.(!seg_end) in
        let direction =
          if c.pc_old_dist.(egress_gateway) < c.pc_old_dist.(node) then Segment.Forward
          else Segment.Backward
        in
        segments :=
          { Segment.ingress_gateway = node; egress_gateway; interior = !interior; direction }
          :: !segments;
        interior := []
      end;
      seg_end := i
    end
    else if dl then interior := node :: !interior
  done;
  {
    p_flow = flow_id;
    p_version = version;
    p_type;
    p_uims = !uims;
    p_segments =
      (if dl then Some { Segment.gateways = !gateways; segments = !segments } else None);
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

(* Digest of the controller's flow database and abort bookkeeping for
   the model checker's state pruning.  Sorted so that hash-table
   insertion history does not leak into the fingerprint.  The constant 7
   stands where a digest of alarm-driven re-pushes was: it keeps every
   pinned fingerprint. *)
let fingerprint t =
  let flow_part =
    List.fold_left
      (fun acc f ->
        (acc * 31)
        lxor Hashtbl.hash
              (f.flow_id, f.version, f.path, Wire.update_type_to_int f.last_type))
      5 (flows_sorted t)
  in
  let aborted_part =
    Hashtbl.fold (fun k v acc -> Hashtbl.hash (k, v) :: acc) t.aborted []
    |> List.sort compare
    |> List.fold_left (fun acc x -> (acc * 31) lxor x) 11
  in
  (flow_part * 131) lxor 7 lxor (aborted_part * 13) lxor (t.alarms * 97)

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
   abort bookkeeping are dropped so long-horizon runs return to
   their baseline footprint between bursts.  Installed data-plane rules
   stay — a stale rule can never violate the consistency invariants, and
   cleanup packets already released any reservations that matter. *)
let retire_flow t ~flow_id =
  Hashtbl.remove t.flow_db flow_id;
  Hashtbl.remove t.last_pushed flow_id;
  Hashtbl.remove t.aborted flow_id

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
          match t.recovery, find_flow t ~flow_id:c.flow_id with
          | Some _, Some flow when not (path_alive t flow.path) -> reroute t flow
          | _ -> ()
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
      allow_consecutive_dl = false;
      recovery = None;
      last_pushed = Hashtbl.create 32;
      aborted = Hashtbl.create 16;
      prep = None;
    }
  in
  install_handler t;
  t
