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

(* The recovery loop's settings and its counters, which
   [recovery_stats] copies out. *)
type recovery = {
  rc_timeout_ms : float;
  rc_max_retries : int;
  rc_deadline_ms : float option;
  mutable rc_retransmissions : int;
  mutable rc_reroutes : int;
  mutable rc_resyncs : int;
  mutable rc_aborts : int;
  mutable rc_give_ups : int;
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

(* One Flow DB entry per flow: everything the §11 ladder knows of it. *)
type entry = {
  mutable flow : flow;
  mutable pushed : prepared option; (* the last pushed update *)
  mutable aborted : int option; (* highest aborted, not rescinded, version *)
  completed : (int, float) Hashtbl.t; (* version -> first success *)
}

type t = {
  net : Netsim.t;
  trace : Obs.Trace.sink option; (* the sink of the network's simulation *)
  flow_db : (int, entry) Hashtbl.t;
  mutable report_hooks : (report -> unit) list;
  mutable push_hooks : (flow_id:int -> version:int -> unit) list;
  mutable alarms : int;
  mutable auto_route : bool;
  mutable allow_consecutive_dl : bool;
  mutable recovery : recovery option; (* §11 recovery loop, opt-in *)
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
    | None -> Topo.Traffic.flow_id_of_pair ~src ~dst
  in
  let flow = { flow_id; src; dst; size; version; path; last_type = Wire.Sl } in
  (* Registering over a live id replaces the flow but keeps its push and
     abort history. *)
  (match Hashtbl.find_opt t.flow_db flow_id with
   | Some e -> e.flow <- flow
   | None ->
     Hashtbl.add t.flow_db flow_id
       { flow; pushed = None; aborted = None; completed = Hashtbl.create 1 });
  flow

let set_auto_route t enabled = t.auto_route <- enabled
let set_allow_consecutive_dl t enabled = t.allow_consecutive_dl <- enabled

let find_flow t ~flow_id =
  match Hashtbl.find t.flow_db flow_id with
  | e -> Some e.flow
  | exception Not_found -> None

let flows t = Hashtbl.fold (fun _ e acc -> e.flow :: acc) t.flow_db []

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
      | [] -> Some "Controller.prepare: empty old or new path"
      | _ when k < 0 -> Some "Controller.prepare: empty old or new path"
      | first :: rest ->
        let last =
          index_old c ~gen:c.pc_gen ~k:(List.length old_path - 1) 0 first rest
        in
        if first <> path.(0) then Some "Controller.prepare: ingress mismatch"
        else if last <> path.(k) then Some "Controller.prepare: egress mismatch"
        else None
    end
  in
  (match bad_ends with Some msg when policy -> invalid_arg msg | _ -> ());
  if k < 0 then invalid_arg "Controller.prepare: empty path";
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

let completion_time t ~flow_id ~version =
  match Hashtbl.find_opt t.flow_db flow_id with
  | Some e -> Hashtbl.find_opt e.completed version
  | None -> None

let on_report t f = t.report_hooks <- t.report_hooks @ [ f ]
let on_push t f = t.push_hooks <- t.push_hooks @ [ f ]
let alarm_count t = t.alarms

let recovery_stats t =
  Option.map
    (fun rc ->
      {
        retransmissions = rc.rc_retransmissions;
        reroutes = rc.rc_reroutes;
        resyncs = rc.rc_resyncs;
        aborts = rc.rc_aborts;
        give_ups = rc.rc_give_ups;
      })
    t.recovery

let aborted_version t ~flow_id =
  match Hashtbl.find_opt t.flow_db flow_id with
  | Some e -> e.aborted
  | None -> None

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
      (match t.trace with
       | None -> ()
       | Some sink ->
         (* One flight span per in-flight indication: a retransmission only
            opens a fresh span once the previous flight has landed (the
            switch pops the anchor on arrival). *)
         let flow = uim.Wire.flow_id and version = uim.Wire.version_new in
         if Obs.Trace.anchor_get sink Uim ~flow ~version ~node = 0 then
           Obs.Trace.anchor_set sink Uim ~flow ~version ~node
             (Obs.Trace.span_begin sink ~cat:"ctl" "uim.flight"
                ~parent:(Obs.Trace.anchor_get sink Update ~flow ~version)
                ~attrs:
                  [
                    Obs.Trace.flow flow;
                    Obs.Trace.version version;
                    Obs.Trace.int "to" node;
                  ]));
      Netsim.controller_transmit t.net ~to_:node (Wire.control_to_bytes uim))
    (List.rev prepared.p_uims)

(* ------------------------------------------------------------------ *)
(* The §11 recovery ladder: DESIGN §4a's state machine per (flow,
   version), with [live] its in-flight test.  [transition] maps a flow's
   entry and one event to the next step: retransmit the same UIM set
   (idempotent: switches reject non-higher versions), reroute onto a
   shortest surviving path, resync a restarted switch by re-deploying the
   current path at a fresh version, give up and abort, or rescind an
   abort that a success UFM raced.  An abort sends a WDM to every node of
   the pushed path and reverts the Flow DB to the old path; it is safe
   because old rules persist until final verification (DESIGN §4a).  The
   aborted version stays burned, so the next update supersedes every
   staged remnant of it. *)
(* ------------------------------------------------------------------ *)

type event =
  | Backoff of int * int (* version, attempt: the attempt's timeout *)
  | Deadline of int (* the operator deadline of that version *)
  | Path_lost (* link/node down, or a watchdog alarm on a dead path *)
  | Node_restarted
  | Link_restored
  | Late_success of int (* a success UFM for an aborted version *)

let live e ~version =
  e.flow.version = version
  && not (Hashtbl.mem e.completed version)
  && Option.value e.aborted ~default:0 < version

(* One ladder step's bookkeeping, in the order every step emits it: its
   counter, its flight-recorder note (with an incident trigger for the
   two end-of-ladder steps) and its trace instant [name], hung under the
   root span of the update at [under] (default [version]) while that
   span is open. *)
let note_step t count ~kind ~flow_id ~version ?(under = version) ?(b = 0) ?trigger
    (name, attrs) =
  (match t.recovery with Some rc -> count rc | None -> ());
  let now = Sim.now (Netsim.sim t.net) in
  Obs.Flight_recorder.note ~now ~kind ~node:(-1) ~flow:flow_id ~a:version ~b;
  (match trigger with
   | Some reason -> ignore (Obs.Flight_recorder.trigger ~now ~reason)
   | None -> ());
  match t.trace with
  | None -> ()
  | Some sink ->
    Obs.Trace.instant sink ~cat:"recovery" name
      ~parent:(Obs.Trace.anchor_get sink Update ~flow:flow_id ~version:under)
      ~attrs:(Obs.Trace.flow flow_id :: Obs.Trace.version version :: attrs)

(* Withdraw [e]'s in-flight update; false when there is none. *)
let abort t e ~reason =
  match e.pushed with
  | Some p when live e ~version:p.p_version ->
    let flow_id = e.flow.flow_id and version = p.p_version in
    e.aborted <- Some version;
    note_step t
      (fun rc -> rc.rc_aborts <- rc.rc_aborts + 1)
      ~kind:Obs.Flight_recorder.k_abort ~flow_id ~version ~trigger:"abort"
      ("recovery.abort", [ Obs.Trace.str "reason" reason ]);
    (match t.trace with
     | None -> ()
     | Some sink ->
       (* Indications dropped in flight leave their spans anchored; the
          abort is where those flights end. *)
       List.iter
         (fun (node, _) ->
           Obs.Trace.span_end sink
             (Obs.Trace.anchor_pop sink Uim ~flow:flow_id ~version ~node)
             ~attrs:[ Obs.Trace.str "outcome" "aborted" ])
         p.p_uims;
       Obs.Trace.span_end sink
         (Obs.Trace.anchor_pop sink Update ~flow:flow_id ~version)
         ~attrs:[ Obs.Trace.str "outcome" "aborted" ]);
    (* Committed nodes ignore the withdraw; their rules stay until a
       higher version supersedes them. *)
    List.iter
      (fun (node, _) ->
        Netsim.controller_transmit t.net ~to_:node
          (Wire.control_to_bytes
             { (Wire.control_default Wire.Wdm) with flow_id; version_new = version }))
      (List.rev p.p_uims);
    e.flow.path <- p.p_old_path;
    true
  | Some _ | None -> false

let abort_update ?(reason = "operator") t ~flow_id =
  match Hashtbl.find_opt t.flow_db flow_id with
  | Some e -> abort t e ~reason
  | None -> false

let give_up t e ~version ~why =
  note_step t
    (fun rc -> rc.rc_give_ups <- rc.rc_give_ups + 1)
    ~kind:Obs.Flight_recorder.k_give_up
    ~flow_id:e.flow.flow_id ~version ~trigger:"give-up"
    ("recovery.give_up", [ Obs.Trace.str "why" why ]);
  ignore (abort t e ~reason:why)

(* Re-send the pushed UIM set of [version]; false when the last push was
   of another version. *)
let retransmit t e ~version ~attempt =
  match e.pushed with
  | Some p when p.p_version = version ->
    note_step t
      (fun rc -> rc.rc_retransmissions <- rc.rc_retransmissions + 1)
      ~kind:Obs.Flight_recorder.k_retransmit
      ~flow_id:e.flow.flow_id ~version ~b:attempt
      ("recovery.retransmit", [ Obs.Trace.int "attempt" attempt ]);
    send_uims t p;
    true
  | Some _ | None -> false

let rec push t prepared =
  let flow_id = prepared.p_flow and version = prepared.p_version in
  (match Hashtbl.find_opt t.flow_db flow_id with
   | Some e ->
     e.flow.version <- version;
     e.flow.path <- List.map fst prepared.p_uims;
     e.flow.last_type <- prepared.p_type;
     e.pushed <- Some prepared
   | None -> ());
  (* Observers (the traffic auditor) hear about EVERY push — including
     the recovery loop's internal reroutes and resyncs, which never pass
     through a caller's hands; without this their paths would be invisible
     to per-packet classification. *)
  List.iter (fun f -> f ~flow_id ~version) t.push_hooks;
  Obs.Flight_recorder.note ~now:(Sim.now (Netsim.sim t.net))
    ~kind:Obs.Flight_recorder.k_push ~node:(-1) ~flow:flow_id ~a:version
    ~b:(List.length prepared.p_uims);
  (* Root span of the update's causal tree; ended by the success UFM. *)
  (match t.trace with
   | None -> ()
   | Some sink ->
     Obs.Trace.anchor_set sink Update ~flow:flow_id ~version
       (Obs.Trace.span_begin sink ~cat:"update" "update"
          ~attrs:
            [
              Obs.Trace.flow flow_id;
              Obs.Trace.version version;
              Obs.Trace.str "type"
                (match prepared.p_type with Wire.Sl -> "sl" | Wire.Dl -> "dl");
              Obs.Trace.int "nodes" (List.length prepared.p_uims);
            ]));
  send_uims t prepared;
  match t.recovery with
  | Some rc ->
    backoff t rc ~flow_id ~version ~attempt:0;
    Option.iter (fun delay -> arm t ~flow_id ~delay (Deadline version)) rc.rc_deadline_ms
  | None -> ()

and update_flow t ~flow_id ~new_path ?update_type ?two_phase () =
  let prepared = prepare t ~flow_id ~new_path ?update_type ?two_phase () in
  push t prepared;
  prepared.p_version

(* A timer delivers its event to whatever entry holds the flow id when
   it fires: none after [retire_flow]. *)
and arm t ~flow_id ~delay event =
  Sim.schedule (Netsim.sim t.net) ~delay (fun () ->
      match Hashtbl.find_opt t.flow_db flow_id with
      | Some e -> transition t e event
      | None -> ())

and backoff t rc ~flow_id ~version ~attempt =
  arm t ~flow_id
    ~delay:(rc.rc_timeout_ms *. (2.0 ** float_of_int attempt))
    (Backoff (version, attempt))

and transition t e event =
  match (t.recovery, event) with
  | _, Late_success version -> (
    (* Rescinding needs no recovery loop: [abort_update] works without. *)
    match e.aborted with
    | Some v when v = version -> (
      e.aborted <- None;
      match e.pushed with
      | Some p when e.flow.version = version && p.p_version = version ->
        e.flow.path <- List.map fst p.p_uims;
        (* No parent: the abort closed the update's root span. *)
        Option.iter
          (fun sink ->
            Obs.Trace.instant sink ~cat:"recovery" "recovery.abort_rescinded"
              ~attrs:[ Obs.Trace.flow e.flow.flow_id; Obs.Trace.version version ])
          t.trace
      | Some _ | None -> ())
    | Some _ | None -> ())
  | None, _ -> ()
  | Some rc, Backoff (version, attempt) when live e ~version ->
    let flow_id = e.flow.flow_id in
    if attempt >= rc.rc_max_retries then give_up t e ~version ~why:"retries-exhausted"
    else if not (path_alive t e.flow.path) then begin
      reroute t e;
      (* No surviving alternative (version unchanged): keep the clock
         running so the update eventually aborts instead of wedging
         half-deployed forever. *)
      if e.flow.version = version then backoff t rc ~flow_id ~version ~attempt:(attempt + 1)
    end
    else begin
      ignore (retransmit t e ~version ~attempt);
      backoff t rc ~flow_id ~version ~attempt:(attempt + 1)
    end
  | Some _, Deadline version when live e ~version -> give_up t e ~version ~why:"deadline"
  | Some _, (Backoff _ | Deadline _) -> ()
  | Some _, Path_lost -> reroute t e
  | Some _, Node_restarted -> resync t e
  | Some rc, Link_restored ->
    (* The backoff timers may have run out while the path was dead.  An
       aborted version stays aborted: a restored link must not resurrect
       the withdrawn staged state. *)
    let version = e.flow.version in
    if live e ~version then
      if not (path_alive t e.flow.path) then reroute t e
      else if retransmit t e ~version ~attempt:0 then
        backoff t rc ~flow_id:e.flow.flow_id ~version ~attempt:1

(* A reroute or resync acts on an update that has usually completed, its
   root span closed, so each hangs under the root span of the push it
   starts.  With no surviving alternative (or already on it) the flow
   waits for a restore or restart event. *)
and reroute t e =
  let flow = e.flow in
  let node_ok n = Netsim.node_is_up t.net ~node:n in
  let edge_ok a b = Netsim.link_is_up t.net a b in
  match
    Topo.Graph.shortest_path_avoiding (Netsim.graph t.net) ~src:flow.src ~dst:flow.dst
      ~node_ok ~edge_ok
  with
  | Some new_path when new_path <> flow.path ->
    let version = flow.version in
    let under = update_flow t ~flow_id:flow.flow_id ~new_path () in
    note_step t
      (fun rc -> rc.rc_reroutes <- rc.rc_reroutes + 1)
      ~kind:Obs.Flight_recorder.k_reroute
      ~flow_id:flow.flow_id ~version ~under ("recovery.reroute", [])
  | Some _ | None -> ()

and resync t e =
  let flow = e.flow in
  let version = flow.version in
  let under =
    update_flow t ~flow_id:flow.flow_id ~new_path:flow.path ~update_type:Wire.Sl ()
  in
  note_step t
    (fun rc -> rc.rc_resyncs <- rc.rc_resyncs + 1)
    ~kind:Obs.Flight_recorder.k_resync
    ~flow_id:flow.flow_id ~version ~under ("recovery.resync", [])

let entries_sorted t =
  List.sort
    (fun a b -> compare a.flow.flow_id b.flow.flow_id)
    (Hashtbl.fold (fun _ e acc -> e :: acc) t.flow_db [])

(* Digest of the controller's flow database and abort bookkeeping for
   the model checker's state pruning.  Sorted so that hash-table
   insertion history does not leak into the fingerprint.  The constant 7
   stands where a digest of alarm-driven re-pushes was: it keeps every
   pinned fingerprint. *)
let fingerprint t =
  let entries = entries_sorted t in
  let flow_part =
    List.fold_left
      (fun acc { flow = f; _ } ->
        (acc * 31)
        lxor Hashtbl.hash
              (f.flow_id, f.version, f.path, Wire.update_type_to_int f.last_type))
      5 entries
  in
  let aborted_part =
    List.filter_map
      (fun e -> Option.map (fun v -> Hashtbl.hash (e.flow.flow_id, v)) e.aborted)
      entries
    |> List.sort compare
    |> List.fold_left (fun acc x -> (acc * 31) lxor x) 11
  in
  (flow_part * 131) lxor 7 lxor (aborted_part * 13) lxor (t.alarms * 97)

let handle_topo_event t topo_event =
  let each uses event =
    List.iter
      (fun e -> transition t e event)
      (List.filter (fun e -> uses e.flow.path) (entries_sorted t))
  in
  match topo_event with
  | Netsim.Link_down (u, v) -> each (fun p -> path_uses_link p u v) Path_lost
  | Netsim.Node_down n -> each (List.mem n) Path_lost
  | Netsim.Node_up n -> each (List.mem n) Node_restarted
  | Netsim.Link_up (u, v) -> each (fun p -> path_uses_link p u v) Link_restored

let enable_recovery ?(timeout_ms = 500.0) ?(max_retries = 6) ?deadline_ms t =
  if t.recovery = None then begin
    t.recovery <-
      Some
        {
          rc_timeout_ms = timeout_ms;
          rc_max_retries = max_retries;
          rc_deadline_ms = deadline_ms;
          rc_retransmissions = 0;
          rc_reroutes = 0;
          rc_resyncs = 0;
          rc_aborts = 0;
          rc_give_ups = 0;
        };
    Netsim.on_topology_event t.net (handle_topo_event t)
  end

(* Forget a flow entirely (soak churn): its one Flow DB entry holds the
   push history and abort bookkeeping, so long-horizon runs return to
   their baseline footprint between bursts and its pending timers find
   nothing.  Installed data-plane rules stay — a stale rule can never
   violate the consistency invariants, and cleanup packets already
   released any reservations that matter. *)
let retire_flow t ~flow_id = Hashtbl.remove t.flow_db flow_id

(* A new flow reported by the data plane (§6): compute a shortest path and
   deploy it egress-first with SL, so rules exist downstream before any
   node starts forwarding.  An FRM whose flow id is not its (src, dst)
   pair's is ignored; registering the pair could overwrite a live flow
   that owns the pair's id. *)
let route_new_flow t (c : Wire.control) =
  let src = c.src_node and dst = c.dist_new in
  let graph = Netsim.graph t.net in
  if src <> dst && dst < Topo.Graph.node_count graph
     && Topo.Traffic.flow_id_of_pair ~src ~dst = c.flow_id
  then
    match Topo.Graph.shortest_path graph ~src ~dst with
    | None -> ()
    | Some path ->
      let flow = register_flow ~version:0 t ~src ~dst ~size:default_flow_size ~path in
      ignore (update_flow t ~flow_id:flow.flow_id ~new_path:path ~update_type:Wire.Sl ())

(* Process one control-channel frame addressed to this controller.  Kept
   separate from [install_handler] so a caller that re-points the
   network's handler can still dispatch here. *)
let handle t ~from bytes =
  match Wire.control_kind_of_bytes bytes with
  | Some Wire.Ufm ->
    (* A UFM is read in place: its flow id, version and status. *)
    let flow = Wire.control_flow_id_of_bytes bytes
    and version = Wire.control_version_new_of_bytes bytes
    and status = Wire.control_layer_of_bytes bytes in
    let report =
      {
        r_flow = flow;
        r_version = version;
        r_status = status;
        r_node = from;
        r_time = Sim.now (Netsim.sim t.net);
      }
    in
    if status <> Wire.ufm_success then t.alarms <- t.alarms + 1;
    Obs.Flight_recorder.note ~now:report.r_time ~kind:Obs.Flight_recorder.k_report ~node:from
      ~flow ~a:version ~b:status;
    (match t.trace with
     | None -> ()
     | Some sink ->
       (* End the switch's UFM flight span, and on first success close
          the update's root span — the causal tree is complete. *)
       Obs.Trace.span_end sink
         (Obs.Trace.anchor_pop sink Ufm ~flow ~version ~node:from)
         ~attrs:[ Obs.Trace.int "status" status ];
       if status = Wire.ufm_success then
         Obs.Trace.span_end sink
           (Obs.Trace.anchor_pop sink Update ~flow ~version)
           ~attrs:[ Obs.Trace.int "ingress" from ]);
    (if status = Wire.ufm_success then
       match Hashtbl.find_opt t.flow_db flow with
       | Some e ->
         (* §11 abort racing a late success: the ingress committed
            before the withdraw reached it, so the update in fact
            succeeded. *)
         if e.aborted <> None then transition t e (Late_success version);
         if not (Hashtbl.mem e.completed version) then
           Hashtbl.add e.completed version report.r_time
       | None -> ());
    List.iter (fun f -> f report) t.report_hooks;
    if status = Wire.ufm_alarm_timeout then begin
      (* §11: a watchdog alarm on a broken path means retransmission
         cannot help — re-label and re-segment around the failure. *)
      match Hashtbl.find_opt t.flow_db flow with
      | Some e when not (path_alive t e.flow.path) -> transition t e Path_lost
      | Some _ | None -> ()
    end
  | Some Wire.Frm -> (
    (* FRMs are rare: the record path is kept. *)
    match Wire.control_of_bytes bytes with
    | Some c -> if t.auto_route && find_flow t ~flow_id:c.flow_id = None then route_new_flow t c
    | None -> ())
  | Some _ | None -> ()

let install_handler t =
  Netsim.set_controller t.net (fun ~from bytes -> handle t ~from bytes)

let create network =
  let t =
    {
      net = network;
      trace = Sim.trace (Netsim.sim network);
      flow_db = Hashtbl.create 64;
      report_hooks = [];
      push_hooks = [];
      alarms = 0;
      auto_route = true;
      allow_consecutive_dl = false;
      recovery = None;
      prep = None;
    }
  in
  install_handler t;
  t
