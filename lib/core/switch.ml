module Sim = Dessim.Sim

let wait_budget = 500

type stats = {
  mutable delivered : int;
  mutable forwarded : int;
  mutable dropped_no_rule : int;
  mutable dropped_ttl : int;
  mutable commits : int;
  mutable alarms : int;
  mutable waits : int;
  mutable congestion_defers : int;
  mutable withdrawals : int;
  mutable parse_errors : int;
}

(* A forwarding-rule commit staged behind the platform's rule-update
   delay.  [label]/[label_counter] may still improve while the commit is
   pending (a better proposal is absorbed rather than re-scheduled). *)
type pending_commit = {
  pc_version : int;
  pc_dist_new : int;
  pc_egress : int;
  pc_notify : int;
  pc_size : int;
  pc_utype : int;
  pc_ver_prev : int;
  pc_two_phase : bool; (* install into the tagged bank only (§11) *)
  mutable pc_chain : bool;
      (* triggering notification was chain-connected to the egress *)
  mutable pc_label : int; (* old-distance label to commit *)
  mutable pc_counter : int;
  mutable pc_cancelled : bool;
  pc_resubmit_bytes : Bytes.t; (* re-processed if capacity defers the commit *)
  mutable pc_span : int; (* trace span covering stage -> fire (0 = untraced) *)
}

(* ------------------------------------------------------------------ *)
(* Deferred actions collected while a frame is processed                *)
(* ------------------------------------------------------------------ *)

type action =
  | Schedule_commit of int * pending_commit
  | Send_upstream of Wire.control * int (* message, port *)
  | Send_ufm of Wire.control
  | Resubmit_bytes of Bytes.t

type t = {
  net : Netsim.t;
  trace : Obs.Trace.sink option; (* the sink of the network's simulation *)
  node : int;
  uib : Uib.t;
  name : string; (* the [pipeline] attribute of traced frames *)
  stats : stats;
  mutable commit_hooks : (flow_id:int -> version:int -> time:float -> unit) list;
  mutable deliver_hooks : (time:float -> Bytes.t -> unit) list;
  pending : (int, pending_commit) Hashtbl.t; (* flow id -> staged commit *)
  wait_counts : (int, int) Hashtbl.t; (* flow id -> resubmissions so far *)
  cong_counts : (int, int) Hashtbl.t; (* flow id -> congestion defers so far *)
  frm_sent : (int, unit) Hashtbl.t;
  waiting_on : (int, int) Hashtbl.t; (* flow id -> contended port *)
  mutable queue : action list; (* deferred actions of the running frame, newest first *)
  (* What the running frame sends once its processing ends: at most one
     emission and one digest, [no_frame] when none. *)
  mutable out_port : int;
  mutable out_bytes : Bytes.t;
  mutable digest : Bytes.t;
  mutable watchdog_ms : float option; (* §11 failure handling, opt-in *)
  mutable consecutive_dl : bool; (* Appendix C extension, opt-in *)
  mutable label_guard : bool; (* DESIGN §4b fix 1, off only in mc's pins *)
  mutable gateway_guard : bool; (* DESIGN §4b fix 2, off only in mc's pins *)
  mutable priority_gate : bool; (* §7.4's dynamic priorities, off in the ablation *)
}

type guard = Inside_segment_label | Gateway_rule | Priority_gate

let congestion_budget = 10_000

let push_action t a = t.queue <- a :: t.queue

let node t = t.node
let stats t = t.stats
let enable_watchdog t ~timeout_ms = t.watchdog_ms <- Some timeout_ms
let enable_consecutive_dl t = t.consecutive_dl <- true

let disable_guard t = function
  | Inside_segment_label -> t.label_guard <- false
  | Gateway_rule -> t.gateway_guard <- false
  | Priority_gate -> t.priority_gate <- false

let uib t = t.uib
let on_commit t f = t.commit_hooks <- t.commit_hooks @ [ f ]
let on_deliver t f = t.deliver_hooks <- t.deliver_hooks @ [ f ]

(* ------------------------------------------------------------------ *)
(* Message construction                                                 *)
(* ------------------------------------------------------------------ *)

let unm_of_committed t ~flow_id ~layer ~utype =
  let u = t.uib in
  {
    (Wire.control_default Wire.Unm) with
    flow_id;
    version_new = Uib.ver_cur u flow_id;
    version_old = Uib.ver_prev u flow_id;
    dist_new = Uib.dist_cur u flow_id;
    dist_old = Uib.dist_prev u flow_id;
    update_type =
      (match Wire.update_type_of_int utype with Some ut -> ut | None -> Wire.Sl);
    layer;
    counter = Uib.counter u flow_id;
    flow_size = Uib.flow_size u flow_id;
    (* The committed flag vouches that this node's whole forwarding chain
       is committed at this version — true only when its own commit was
       triggered by a chain-connected notification (rooted at the
       egress). *)
    role = (if Uib.chain_ok u flow_id = 1 then Wire.role_committed else 0);
    src_node = t.node;
  }

let ufm ~flow_id ~version ~status ~src =
  {
    (Wire.control_default Wire.Ufm) with
    flow_id;
    version_new = version;
    layer = status;
    src_node = src;
  }

(* ------------------------------------------------------------------ *)
(* Commit machinery                                                     *)
(* ------------------------------------------------------------------ *)

(* Trace helpers.  Spans are handed across wire messages through the
   sink's anchor table (the byte format is fixed); every helper is a no-op
   when the network's simulation has no sink.  Attribute lists are built
   only behind a [t.trace] (or nonzero span id) check, so the untraced
   path allocates nothing for tracing. *)

let root_span sink (c : Wire.control) =
  Obs.Trace.anchor_get sink Update ~flow:c.Wire.flow_id ~version:c.Wire.version_new

let trace_unm_send t (msg : Wire.control) =
  match t.trace with
  | Some sink when msg.Wire.kind = Wire.Unm ->
    let id =
      Obs.Trace.span_begin sink ~cat:"ctl" "unm.hop" ~node:t.node
        ~parent:(root_span sink msg)
        ~attrs:
          [
            Obs.Trace.flow msg.flow_id;
            Obs.Trace.version msg.version_new;
            Obs.Trace.int "layer" msg.layer;
          ]
    in
    Obs.Trace.anchor_set sink Unm ~flow:msg.flow_id ~version:msg.version_new ~node:t.node id
  | Some _ | None -> ()

(* Switch-to-controller send with a flight span ended by the controller. *)
let notify_ctl t (msg : Wire.control) =
  (match t.trace with
   | None -> ()
   | Some sink ->
     let id =
       Obs.Trace.span_begin sink ~cat:"ctl" "ufm.flight" ~node:t.node
         ~parent:(root_span sink msg)
         ~attrs:
           [
             Obs.Trace.flow msg.flow_id;
             Obs.Trace.version msg.version_new;
             Obs.Trace.int "status" msg.layer;
           ]
     in
     Obs.Trace.anchor_set sink Ufm ~flow:msg.flow_id ~version:msg.version_new ~node:t.node
       id);
  Netsim.notify_controller t.net ~from:t.node (Wire.control_to_bytes msg)

let rec send_upstream t msg ~port =
  if port = Wire.port_none then ()
  else begin
    trace_unm_send t msg;
    Netsim.transmit t.net ~from:t.node ~port (Wire.control_to_bytes msg)
  end

and fire_commit t flow_id (pc : pending_commit) =
  let u = t.uib in
  (* A commit staged before the node went down must not mutate the state
     the node restarts with (§11). *)
  if
    pc.pc_cancelled
    || (not (Netsim.node_is_up t.net ~node:t.node))
    || Uib.ver_cur u flow_id >= pc.pc_version
    || Uib.withdrawn_version u flow_id >= pc.pc_version
  then begin
    (match t.trace with
     | Some sink when pc.pc_span <> 0 ->
       Obs.Trace.span_end sink pc.pc_span ~attrs:[ Obs.Trace.str "outcome" "cancelled" ]
     | Some _ | None -> ());
    (* A superseded commit's timer must not drop its successor's entry. *)
    match Hashtbl.find_opt t.pending flow_id with
    | Some staged when staged == pc -> Hashtbl.remove t.pending flow_id
    | Some _ | None -> ()
  end
  else begin
    (* Congestion check happens at commit time so reservations are never
       based on stale capacity (§7.4). *)
    let high = Congestion.is_promoted u ~flow_id in
    let other_high_waiters =
      Hashtbl.fold
        (fun g port acc ->
          if g <> flow_id && port = pc.pc_egress && Congestion.is_promoted u ~flow_id:g
          then acc + 1
          else acc)
        t.waiting_on 0
    in
    match
      Congestion.check u ~flow_id ~new_port:pc.pc_egress ~size:pc.pc_size
        ~priority_gate:t.priority_gate ~high_priority:high ~other_high_waiters
    with
    | Congestion.Defer_capacity | Congestion.Defer_priority ->
      (match t.trace with
       | Some sink when pc.pc_span <> 0 ->
         Obs.Trace.span_end sink pc.pc_span ~attrs:[ Obs.Trace.str "outcome" "deferred" ]
       | Some _ | None -> ());
      t.stats.congestion_defers <- t.stats.congestion_defers + 1;
      if not (Hashtbl.mem t.waiting_on flow_id) then begin
        Hashtbl.add t.waiting_on flow_id pc.pc_egress;
        Congestion.note_contention u ~port:pc.pc_egress
      end;
      Hashtbl.remove t.pending flow_id;
      let defers = Option.value (Hashtbl.find_opt t.cong_counts flow_id) ~default:0 in
      Hashtbl.replace t.cong_counts flow_id (defers + 1);
      if defers < congestion_budget then
        Netsim.resubmit t.net ~node:t.node pc.pc_resubmit_bytes
      else begin
        (* Infeasible move: give up rather than loop forever; report, and
           stop poisoning the waiting queue for other flows. *)
        (match Hashtbl.find_opt t.waiting_on flow_id with
         | Some port ->
           Congestion.clear_contention u ~port;
           Hashtbl.remove t.waiting_on flow_id
         | None -> ());
        t.stats.alarms <- t.stats.alarms + 1;
        notify_ctl t
          (ufm ~flow_id ~version:pc.pc_version ~status:Wire.ufm_alarm_wait_budget
             ~src:t.node)
      end
    | Congestion.Proceed ->
      (match Hashtbl.find_opt t.waiting_on flow_id with
       | Some port ->
         Congestion.clear_contention u ~port;
         Hashtbl.remove t.waiting_on flow_id
       | None -> ());
      let old_port = Uib.egress_port u flow_id in
      (* A cleanup may already have released the old reservation. *)
      let old_size = if Uib.cleaned u flow_id = 1 then 0 else Uib.flow_size u flow_id in
      Uib.set_cleaned u flow_id 0;
      Congestion.apply_move u ~old_port ~new_port:pc.pc_egress ~old_size
        ~new_size:pc.pc_size;
      Uib.set_ver_prev u flow_id pc.pc_ver_prev;
      Uib.set_dist_prev u flow_id pc.pc_label;
      Uib.set_ver_cur u flow_id pc.pc_version;
      Uib.set_dist_cur u flow_id pc.pc_dist_new;
      if pc.pc_two_phase then begin
        (* Phase 1 of the 2-phase commit: the rule lands in the tagged
           bank; untagged traffic keeps using the old rule until the
           ingress flips to the new tag. *)
        Uib.set_tagged_port u flow_id pc.pc_egress;
        Uib.set_tagged_version u flow_id pc.pc_version
      end
      else Uib.set_egress_port u flow_id pc.pc_egress;
      Uib.set_notify_port u flow_id pc.pc_notify;
      Uib.set_flow_size u flow_id pc.pc_size;
      Uib.set_counter u flow_id pc.pc_counter;
      Uib.set_last_type u flow_id pc.pc_utype;
      Uib.set_chain_ok u flow_id (if pc.pc_chain then 1 else 0);
      Hashtbl.remove t.pending flow_id;
      Hashtbl.remove t.cong_counts flow_id;
      t.stats.commits <- t.stats.commits + 1;
      (match t.trace with
       | Some sink when pc.pc_span <> 0 ->
         Obs.Trace.span_end sink pc.pc_span
           ~attrs:
             [
               Obs.Trace.str "outcome" "committed";
               Obs.Trace.int "egress" pc.pc_egress;
               Obs.Trace.int "label" pc.pc_label;
             ]
       | Some _ | None -> ());
      (* Rule cleanup (§11): tell the abandoned old parent that no further
         packets will arrive, so it can free its rule and reservation. *)
      if
        old_port <> Wire.port_none && old_port <> Wire.port_local
        && old_port <> pc.pc_egress
      then
        send_upstream t
          {
            (Wire.control_default Wire.Cln) with
            flow_id;
            version_new = pc.pc_version;
            flow_size = old_size;
            src_node = t.node;
          }
          ~port:old_port;
      let time = Sim.now (Netsim.sim t.net) in
      List.iter (fun f -> f ~flow_id ~version:pc.pc_version ~time) t.commit_hooks;
      notify_after_commit t flow_id pc
  end

and notify_after_commit t flow_id pc =
  let u = t.uib in
  if pc.pc_notify <> Wire.port_none then
    let layer = if Uib.dist_cur u flow_id = 0 then 1 else 2 in
    send_upstream t (unm_of_committed t ~flow_id ~layer ~utype:pc.pc_utype) ~port:pc.pc_notify
  else begin
    (* Phase 2 of the 2-phase commit: the whole tagged path is in place;
       the ingress starts stamping the new tag. *)
    if pc.pc_two_phase then Uib.set_stamp_tag u flow_id pc.pc_version;
    (* Flow ingress: report completion.  SL completes here; DL completes
       once the egress' 0 label has travelled the whole path. *)
    let is_dl = pc.pc_utype = Wire.update_type_to_int Wire.Dl in
    if (not is_dl) || Uib.dist_prev u flow_id = 0 then
      if Uib.ufm_sent u flow_id < pc.pc_version then begin
        Uib.set_ufm_sent u flow_id pc.pc_version;
        notify_ctl t
          (ufm ~flow_id ~version:pc.pc_version ~status:Wire.ufm_success ~src:t.node)
      end
  end

let schedule_commit t flow_id pc =
  let supersedes =
    match Hashtbl.find_opt t.pending flow_id with
    | Some old when old.pc_version < pc.pc_version ->
      old.pc_cancelled <- true;
      true
    | Some old -> old.pc_cancelled (* keep a live commit of the same/higher version *)
    | None -> true
  in
  if supersedes then begin
    (match t.trace with
     | None -> ()
     | Some sink ->
       pc.pc_span <-
         Obs.Trace.span_begin sink ~cat:"switch" "commit" ~node:t.node
           ~parent:(Obs.Trace.anchor_get sink Update ~flow:flow_id ~version:pc.pc_version)
           ~attrs:
             [
               Obs.Trace.flow flow_id;
               Obs.Trace.version pc.pc_version;
               Obs.Trace.int "egress" pc.pc_egress;
               ("two_phase", Obs.Json.Bool pc.pc_two_phase);
             ]);
    Hashtbl.replace t.pending flow_id pc;
    (* Re-committing an identical forwarding rule does not touch the
       forwarding table, so it skips the platform's rule-install delay;
       only actual rule changes pay it. *)
    let unchanged =
      Uib.egress_port t.uib flow_id = pc.pc_egress
      && Uib.flow_size t.uib flow_id = pc.pc_size
    in
    let delay = if unchanged then 0.0 else Netsim.rule_update_delay t.net ~node:t.node in
    Sim.schedule (Netsim.sim t.net) ~delay (fun () -> fire_commit t flow_id pc)
  end

(* ------------------------------------------------------------------ *)
(* The frame path                                                       *)
(* ------------------------------------------------------------------ *)

let no_frame = Bytes.empty

(* An alarm drops the frame and punts a UFM to the controller.  A frame
   raises at most one. *)
let alarm t ~flow_id ~version ~status =
  t.stats.alarms <- t.stats.alarms + 1;
  (match t.trace with
   | None -> ()
   | Some sink ->
     Obs.Trace.instant sink ~cat:"switch" "alarm" ~node:t.node
       ~parent:(Obs.Trace.anchor_get sink Update ~flow:flow_id ~version)
       ~attrs:
         [
           Obs.Trace.flow flow_id; Obs.Trace.version version; Obs.Trace.int "status" status;
         ]);
  t.digest <- Wire.control_to_bytes (ufm ~flow_id ~version ~status ~src:t.node)

(* A data frame, read in place: [classify] vouched for its length. *)
let handle_data t ~in_port bytes =
  let u = t.uib in
  (* Registers are indexed by the flow-id hash, masked like the P4 program. *)
  let flow_id = Wire.data_flow_id_of_bytes bytes land (Wire.flow_space - 1) in
  let from_host = in_port = Netsim.port_host in
  (* The ingress stamps packets with the active tag (2-phase commit). *)
  let tag =
    let tag = Wire.data_tag_of_bytes bytes in
    if from_host && tag = 0 then Uib.stamp_tag u flow_id else tag
  in
  (* Tagged packets use the tagged rule bank when it matches. *)
  let port =
    if tag <> 0 && tag = Uib.tagged_version u flow_id then Uib.tagged_port u flow_id
    else Uib.egress_port u flow_id
  in
  if port = Wire.port_none then begin
    (* Unknown flow: the ingress reports it once to the controller (FRM),
       any other switch just counts the blackhole. *)
    if from_host && not (Hashtbl.mem t.frm_sent flow_id) then begin
      Hashtbl.add t.frm_sent flow_id ();
      t.digest <-
        Wire.control_to_bytes
          {
            (Wire.control_default Wire.Frm) with
            flow_id;
            (* the clone of the first packet carries the destination *)
            dist_new = Wire.data_dst_of_bytes bytes;
            src_node = t.node;
          }
    end
    else t.stats.dropped_no_rule <- t.stats.dropped_no_rule + 1
  end
  else if port = Wire.port_local then begin
    t.stats.delivered <- t.stats.delivered + 1;
    (* Local delivery bypasses [Netsim.transmit], so [Netsim.on_delivery]
       observers never see it; the egress hook is the only place a live
       auditor learns a packet left the network. *)
    match t.deliver_hooks with
    | [] -> ()
    | hooks ->
      let time = Sim.now (Netsim.sim t.net) in
      List.iter (fun f -> f ~time bytes) hooks
  end
  else
    let ttl = Wire.data_ttl_of_bytes bytes in
    if ttl <= 1 then t.stats.dropped_ttl <- t.stats.dropped_ttl + 1
    else begin
      t.stats.forwarded <- t.stats.forwarded + 1;
      (* The received buffer is never written: the emission is a copy. *)
      t.out_port <- port;
      t.out_bytes <- Wire.data_forward_copy bytes ~ttl:(ttl - 1) ~tag
    end

(* §11 failure handling: a staged indication that never commits means
   the notification chain was lost somewhere downstream — alarm the
   controller so it can re-trigger the update. *)
let arm_watchdog t ~flow_id ~version timeout_ms =
  Sim.schedule (Netsim.sim t.net) ~delay:timeout_ms (fun () ->
      if Uib.ver_cur t.uib flow_id < version
         && Uib.uim_version t.uib flow_id = version
         && Uib.withdrawn_version t.uib flow_id < version
      then begin
        t.stats.alarms <- t.stats.alarms + 1;
        notify_ctl t (ufm ~flow_id ~version ~status:Wire.ufm_alarm_timeout ~src:t.node)
      end)

let handle_uim t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  let accepted = Uib.stage_uim u flow_id c in
  (* End the controller's flight span for this indication. *)
  (match t.trace with
   | None -> ()
   | Some sink ->
     Obs.Trace.span_end sink
       (Obs.Trace.anchor_pop sink Uim ~flow:flow_id ~version:c.version_new ~node:t.node)
       ~attrs:[ ("accepted", Obs.Json.Bool accepted) ]);
  (* §11 failure handling: a re-pushed indication for the already-staged
     version makes an already-committed egress (or DL segment egress)
     regenerate its notification, restarting a chain lost to packet
     drops.  Idempotent: downstream duplicates are ignored by Alg. 1/2. *)
  if (not accepted) && c.version_new = Uib.uim_version u flow_id then begin
    (match t.watchdog_ms with
     | Some timeout_ms when Uib.ver_cur u flow_id < c.version_new ->
       arm_watchdog t ~flow_id ~version:c.version_new timeout_ms
     | Some _ | None -> ());
    (* Any committed node (egress, gateway or mid-path) replays the exact
       notification it sent when its rule fired, so the chain restarts
       from the furthest committed point — not only from the egress. *)
    if
      Uib.ver_cur u flow_id >= c.version_new
      && Uib.notify_port u flow_id <> Wire.port_none
    then begin
      let layer = if Uib.dist_cur u flow_id = 0 then 1 else 2 in
      push_action t
        (Send_upstream
           ( unm_of_committed t ~flow_id ~layer ~utype:(Uib.last_type u flow_id),
             Uib.notify_port u flow_id ))
    end;
    (* §11: a re-pushed indication reaching an already-committed ingress
       re-acknowledges the completion — the original success UFM may have
       been lost on the control channel, and the controller keys its
       retransmissions on (flow, version). *)
    if
      Uib.ver_cur u flow_id >= c.version_new
      && c.role land Wire.role_flow_ingress <> 0
      && (c.update_type = Wire.Sl || Uib.dist_prev u flow_id = 0)
    then
      push_action t
        (Send_ufm
           (ufm ~flow_id ~version:c.version_new ~status:Wire.ufm_success ~src:t.node))
  end;
  if accepted then begin
    Hashtbl.remove t.wait_counts flow_id;
    (match t.watchdog_ms with
     | Some timeout_ms -> arm_watchdog t ~flow_id ~version:c.version_new timeout_ms
     | None -> ());
    let utype = Wire.update_type_to_int c.update_type in
    if c.role land Wire.role_flow_egress <> 0 then
      (* The egress applies the new configuration directly (§7.1) and
         notifies its child once the rule is in place. *)
      push_action t
        (Schedule_commit
           ( flow_id,
             {
               pc_version = c.version_new;
               pc_dist_new = c.dist_new;
               pc_egress = c.egress_port;
               pc_notify = c.notify_port;
               pc_size = c.flow_size;
               pc_utype = utype;
               pc_ver_prev = Uib.ver_cur u flow_id;
               pc_two_phase = c.role land Wire.role_two_phase <> 0;
               pc_chain = true; (* the egress roots the committed chain *)
               pc_label = Uib.dist_cur u flow_id;
               pc_counter = 0;
               pc_cancelled = false;
               pc_resubmit_bytes = Wire.control_to_bytes c;
               pc_span = 0;
             } ))
    else if
      c.update_type = Wire.Dl
      && c.role land Wire.role_segment_egress <> 0
      && c.notify_port <> Wire.port_none
      (* Local verification: only a node that actually holds a forwarding
         rule may invite upstream traffic.  The controller may wrongly
         believe this node is on the old path (inconsistent view, par. 5). *)
      && ((not t.gateway_guard) || Uib.egress_port u flow_id <> Wire.port_none)
    then begin
      (* A segment-egress gateway immediately proposes its segment id to
         its segment (second-layer UNM), before updating itself. *)
      let proposal =
        {
          (Wire.control_default Wire.Unm) with
          flow_id;
          version_new = c.version_new;
          version_old = Uib.ver_cur u flow_id;
          dist_new = c.dist_new;
          dist_old = Uib.dist_cur u flow_id;
          update_type = Wire.Dl;
          layer = 2;
          counter = Uib.counter u flow_id;
          flow_size = c.flow_size;
          src_node = t.node;
        }
      in
      push_action t (Send_upstream (proposal, c.notify_port))
    end
  end

let node_view_of u flow_id =
  {
    Verify.ver_cur = Uib.ver_cur u flow_id;
    dist_cur = Uib.dist_cur u flow_id;
    ver_prev = Uib.ver_prev u flow_id;
    dist_prev = Uib.dist_prev u flow_id;
    counter = Uib.counter u flow_id;
    last_dual = Uib.last_type u flow_id = Wire.update_type_to_int Wire.Dl;
    uim_version = Uib.uim_version u flow_id;
    uim_distance = Uib.uim_distance u flow_id;
  }

let unm_view_of (c : Wire.control) =
  {
    Verify.u_ver_new = c.version_new;
    u_ver_old = c.version_old;
    u_dist_new = c.dist_new;
    u_dist_old = c.dist_old;
    u_counter = c.counter;
    u_dual = c.update_type = Wire.Dl;
    u_committed = c.role land Wire.role_committed <> 0;
  }

let decision_name = function
  | Verify.Commit _ -> "commit"
  | Verify.Inherit_and_pass -> "inherit"
  | Verify.Wait_for_uim -> "wait"
  | Verify.Reject_stale -> "reject_stale"
  | Verify.Reject_distance -> "reject_distance"
  | Verify.Ignore -> "ignore"

let handle_unm_verified t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  let node = node_view_of u flow_id in
  let dual =
    c.update_type = Wire.Dl
    && Uib.uim_type u flow_id = Wire.update_type_to_int Wire.Dl
  in
  let decision =
    if dual then
      Verify.dl_verify ~consecutive:t.consecutive_dl ~label_guard:t.label_guard node
        (unm_view_of c)
    else Verify.sl_verify node (unm_view_of c)
  in
  (* End the sender's hop span with the Alg. 1/2 verdict, and leave an
     instant for the verification step itself. *)
  (match t.trace with
   | None -> ()
   | Some sink ->
     let hop =
       Obs.Trace.anchor_pop sink Unm ~flow:flow_id ~version:c.version_new ~node:c.src_node
     in
     Obs.Trace.span_end sink hop
       ~attrs:[ Obs.Trace.str "decision" (decision_name decision) ];
     Obs.Trace.instant sink ~cat:"verify"
       ((if dual then "dl_verify." else "sl_verify.") ^ decision_name decision)
       ~node:t.node
       ~parent:(if hop <> 0 then hop else root_span sink c)
       ~attrs:[ Obs.Trace.flow flow_id; Obs.Trace.version c.version_new ]);
  match decision with
  | Verify.Commit source ->
    let utype = Uib.uim_type u flow_id in
    let label, counter, ver_prev =
      match source with
      | Verify.Via_sl ->
        (Uib.dist_cur u flow_id, 0, Uib.ver_cur u flow_id)
      | Verify.Via_dl_inside -> (c.dist_old, c.counter + 1, c.version_new - 1)
      | Verify.Via_dl_gateway -> (c.dist_old, c.counter + 1, c.version_old)
    in
    (match Hashtbl.find_opt t.pending flow_id with
     | Some pc when pc.pc_version = c.version_new && not pc.pc_cancelled ->
       (* A commit for this version is already staged; absorb a better
          label or chain-connectedness instead of scheduling a duplicate. *)
       if label < pc.pc_label then begin
         pc.pc_label <- label;
         pc.pc_counter <- counter
       end;
       if c.role land Wire.role_committed <> 0 then pc.pc_chain <- true
     | Some _ | None ->
       push_action t
         (Schedule_commit
            ( flow_id,
              {
                pc_version = c.version_new;
                pc_dist_new = Uib.uim_distance u flow_id;
                pc_egress = Uib.uim_egress u flow_id;
                pc_notify = Uib.uim_notify u flow_id;
                pc_size = Uib.uim_size u flow_id;
                pc_utype = utype;
                pc_ver_prev = ver_prev;
                pc_two_phase = Uib.uim_role u flow_id land Wire.role_two_phase <> 0;
                pc_chain = c.role land Wire.role_committed <> 0;
                pc_label = label;
                pc_counter = counter;
                pc_cancelled = false;
                pc_resubmit_bytes = Wire.control_to_bytes c;
                pc_span = 0;
              } )))
  | Verify.Inherit_and_pass ->
    Uib.set_dist_prev u flow_id c.dist_old;
    Uib.set_counter u flow_id (c.counter + 1);
    (* A chain-connected message from the committed successor makes this
       node's chain connected as well. *)
    if c.role land Wire.role_committed <> 0 then Uib.set_chain_ok u flow_id 1;
    let notify = Uib.notify_port u flow_id in
    if notify <> Wire.port_none then
      push_action t
        (Send_upstream (unm_of_committed t ~flow_id ~layer:c.layer ~utype:(Uib.last_type u flow_id), notify))
    else if c.dist_old = 0 && Uib.ufm_sent u flow_id < c.version_new then begin
      Uib.set_ufm_sent u flow_id c.version_new;
      push_action t
        (Send_ufm (ufm ~flow_id ~version:c.version_new ~status:Wire.ufm_success ~src:t.node))
    end
  | Verify.Wait_for_uim ->
    let count = Option.value (Hashtbl.find_opt t.wait_counts flow_id) ~default:0 in
    if count >= wait_budget then begin
      Hashtbl.remove t.wait_counts flow_id;
      alarm t ~flow_id ~version:c.version_new ~status:Wire.ufm_alarm_wait_budget
    end
    else begin
      Hashtbl.replace t.wait_counts flow_id (count + 1);
      t.stats.waits <- t.stats.waits + 1;
      push_action t (Resubmit_bytes (Wire.control_to_bytes c))
    end
  | Verify.Reject_stale -> alarm t ~flow_id ~version:c.version_new ~status:Wire.ufm_alarm_stale
  | Verify.Reject_distance ->
    alarm t ~flow_id ~version:c.version_new ~status:Wire.ufm_alarm_distance
  | Verify.Ignore -> ()

(* §11 abort: a notification for a withdrawn, uncommitted version is dead
   on arrival — re-verifying it would resurrect the staged state the
   controller just discarded.  Committed versions are untouchable (the
   withdraw itself refuses them), so this check can only suppress a
   commit that has not happened yet. *)
let handle_unm t (c : Wire.control) =
  let u = t.uib in
  if
    Uib.withdrawn_version u c.flow_id >= c.version_new
    && Uib.ver_cur u c.flow_id < c.version_new
  then begin
    match t.trace with
    | None -> ()
    | Some sink ->
      Obs.Trace.span_end sink
        (Obs.Trace.anchor_pop sink Unm ~flow:c.flow_id ~version:c.version_new
           ~node:c.src_node)
        ~attrs:[ Obs.Trace.str "decision" "withdrawn" ]
  end
  else handle_unm_verified t c

(* §11 abort: the controller withdraws a staged (uncommitted) update.
   Already-committed versions ignore the message — their rules are part
   of a verified chain and stay until a higher version supersedes them.
   Otherwise the withdraw floor in the UIB kills the staged indication,
   any pending commit, and blocks late duplicates (UIM/UNM) of the
   aborted version from resurrecting it. *)
let handle_withdraw t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  let version = c.version_new in
  if Uib.ver_cur u flow_id < version then begin
    let had_staged = Uib.withdraw u flow_id ~version in
    (match Hashtbl.find_opt t.pending flow_id with
     | Some pc when pc.pc_version <= version -> pc.pc_cancelled <- true
     | Some _ | None -> ());
    Hashtbl.remove t.wait_counts flow_id;
    Hashtbl.remove t.cong_counts flow_id;
    (match Hashtbl.find_opt t.waiting_on flow_id with
     | Some port ->
       Congestion.clear_contention u ~port;
       Hashtbl.remove t.waiting_on flow_id
     | None -> ());
    t.stats.withdrawals <- t.stats.withdrawals + 1;
    match t.trace with
    | None -> ()
    | Some sink ->
      Obs.Trace.instant sink ~cat:"switch" "withdraw" ~node:t.node
        ~parent:(root_span sink c)
        ~attrs:
          [
            Obs.Trace.flow flow_id;
            Obs.Trace.version version;
            ("staged", Obs.Json.Bool had_staged);
          ]
  end

(* A cleanup packet deletes the flow state of nodes abandoned by the
   update.  Nodes that participate in the update (their staged indication
   is at least as new) ignore it: their own commit manages the
   reservations. *)
let handle_cleanup t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  (* Only release the capacity reservation: the stale rule itself stays in
     place, because other (equally stale) parents of older versions may
     still route traffic through this node, and a stale rule can never
     violate the consistency invariants.  Idempotent via the cleaned
     flag, so duplicated cleanup packets cannot double-release. *)
  if Uib.uim_version u flow_id < c.version_new && Uib.cleaned u flow_id = 0 then begin
    let port = Uib.egress_port u flow_id in
    if port <> Wire.port_none && port <> Wire.port_local then begin
      Uib.release u port (Uib.flow_size u flow_id);
      Uib.set_cleaned u flow_id 1;
      (* Propagate along the abandoned old path. *)
      push_action t
        (Send_upstream
           ({ c with flow_size = Uib.flow_size u flow_id; src_node = t.node }, port))
    end
  end

(* Register indices derived from a header are bounded, as in a P4
   program: an indication naming a port this switch does not have is
   malformed and dropped before it can stage anything. *)
let valid_port t port =
  port = Wire.port_none || port = Wire.port_local
  || (port >= 0 && port < Netsim.port_count t.net ~node:t.node)

(* A control frame is decoded, then dropped once its handler ran. *)
let handle_control t bytes =
  match Wire.control_of_bytes bytes with
  | Some c ->
    (* Registers are indexed by the flow-id hash: mask like the P4 program
       does.  A corrupted id aliases some slot and is then rejected by the
       verification checks. *)
    let c =
      if c.Wire.flow_id < Wire.flow_space then c
      else { c with Wire.flow_id = c.Wire.flow_id land (Wire.flow_space - 1) }
    in
    (match c.kind with
     | Wire.Uim when valid_port t c.egress_port && valid_port t c.notify_port ->
       handle_uim t c
     | Wire.Uim -> ()
     | Wire.Unm -> handle_unm t c
     | Wire.Cln -> handle_cleanup t c
     | Wire.Wdm -> handle_withdraw t c
     | Wire.Frm | Wire.Ufm -> () (* switch is not their consumer *))
  | None -> ()

(* The parse verdict comes from the base header's fixed offsets: a frame
   too short for its etype is a parse error, a foreign etype is dropped
   silently, as by the parse graph in [Wire.parser]. *)
let ingress t ~in_port bytes =
  match Wire.classify bytes with
  | Wire.Data_frame -> handle_data t ~in_port bytes
  | Wire.Control_frame -> handle_control t bytes
  | Wire.Foreign -> ()
  | Wire.Truncated -> t.stats.parse_errors <- t.stats.parse_errors + 1

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let run_action t = function
  | Schedule_commit (flow_id, pc) -> schedule_commit t flow_id pc
  | Send_upstream (msg, port) -> send_upstream t msg ~port
  | Send_ufm msg -> notify_ctl t msg
  | Resubmit_bytes bytes -> Netsim.resubmit t.net ~node:t.node bytes

(* Actions run in the order they were pushed. *)
let drain_actions t =
  match t.queue with
  | [] -> ()
  | queue ->
    t.queue <- [];
    List.iter (run_action t) (List.rev queue)

(* One frame, whatever its origin: a data port, [Netsim.port_host],
   [Netsim.port_controller] or a resubmission.  Under a sink it is one
   [pipeline.process] span; its emission and digest leave after the span
   ends, then the deferred actions run. *)
let receive t ~port bytes =
  let span =
    match t.trace with
    | None -> 0
    | Some sink ->
      Obs.Trace.span_begin sink ~cat:"p4rt" "pipeline.process"
        ~attrs:
          [
            Obs.Trace.str "pipeline" t.name;
            Obs.Trace.str "instance" "normal";
            Obs.Trace.int "in_port" port;
          ]
  in
  ingress t ~in_port:port bytes;
  let out_bytes = t.out_bytes and digest = t.digest in
  t.out_bytes <- no_frame;
  t.digest <- no_frame;
  (match t.trace with
   | Some sink when span <> 0 ->
     Obs.Trace.span_end sink span
       ~attrs:
         [
           Obs.Trace.int "emissions" (if out_bytes == no_frame then 0 else 1);
           Obs.Trace.int "digests" (if digest == no_frame then 0 else 1);
           ("resubmit", Obs.Json.Bool false);
         ]
   | Some _ | None -> ());
  if out_bytes != no_frame then Netsim.transmit t.net ~from:t.node ~port:t.out_port out_bytes;
  if digest != no_frame then Netsim.notify_controller t.net ~from:t.node digest;
  drain_actions t

(* Port capacities come straight from the topology, in centi-units. *)
let install_port_capacities net ~node u =
  let graph = Netsim.graph net in
  List.iteri
    (fun port neighbor ->
      Uib.set_port_capacity u port
        (int_of_float (Topo.Graph.capacity graph node neighbor *. 100.0)))
    (Topo.Graph.neighbors graph node)

let create net ~node =
  let ports = Netsim.port_count net ~node in
  let u = Uib.create ~ports in
  install_port_capacities net ~node u;
  let t =
    {
      net;
      trace = Sim.trace (Netsim.sim net);
      node;
      uib = u;
      name = Printf.sprintf "p4update-sw%d" node;
      stats =
        {
          delivered = 0;
          forwarded = 0;
          dropped_no_rule = 0;
          dropped_ttl = 0;
          commits = 0;
          alarms = 0;
          waits = 0;
          congestion_defers = 0;
          withdrawals = 0;
          parse_errors = 0;
        };
      commit_hooks = [];
      deliver_hooks = [];
      pending = Hashtbl.create 16;
      wait_counts = Hashtbl.create 16;
      cong_counts = Hashtbl.create 16;
      frm_sent = Hashtbl.create 16;
      waiting_on = Hashtbl.create 16;
      queue = [];
      out_port = Wire.port_none;
      out_bytes = no_frame;
      digest = no_frame;
      watchdog_ms = None;
      consecutive_dl = false;
      label_guard = true;
      gateway_guard = true;
      priority_gate = true;
    }
  in
  Netsim.attach net ~node (receive t);
  t

(* §11: a power-cycled switch loses its whole soft state — UIB
   registers, staged commits and the scratch tables around them.  Port
   capacities are re-read from the (persistent) platform configuration.
   The controller is expected to re-sync the UIB afterwards. *)
let restart t =
  Option.iter
    (fun sink -> Obs.Trace.instant sink ~cat:"switch" "switch.restart" ~node:t.node)
    t.trace;
  Hashtbl.iter (fun _ pc -> pc.pc_cancelled <- true) t.pending;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.wait_counts;
  Hashtbl.reset t.cong_counts;
  Hashtbl.reset t.frm_sent;
  Hashtbl.reset t.waiting_on;
  t.queue <- [];
  Uib.reset t.uib;
  install_port_capacities t.net ~node:t.node t.uib

let inject_data t data = receive t ~port:Netsim.port_host (Wire.data_to_bytes data)

let install_initial t ~flow_id ~version ~dist ~egress_port ~notify_port ~size =
  let u = t.uib in
  Uib.set_ver_cur u flow_id version;
  Uib.set_dist_cur u flow_id dist;
  Uib.set_ver_prev u flow_id (max 0 (version - 1));
  Uib.set_dist_prev u flow_id dist;
  Uib.set_egress_port u flow_id egress_port;
  Uib.set_notify_port u flow_id notify_port;
  Uib.set_flow_size u flow_id size;
  Uib.set_last_type u flow_id (Wire.update_type_to_int Wire.Sl);
  if egress_port <> Wire.port_none && egress_port <> Wire.port_local then
    Uib.reserve u egress_port size

let forwarding_port t ~flow_id = Uib.egress_port t.uib flow_id
let version_of t ~flow_id = Uib.ver_cur t.uib flow_id

(* Digest of the switch's full soft state for the model checker: UIB
   registers plus the scratch tables that survive between events
   (staged commits, wait/congestion budgets, FRM dedup, port waits).
   Hashtbl iteration order depends on insertion history, so bindings
   are sorted before mixing. *)
let hash_table_sorted h hash_binding =
  Hashtbl.fold (fun k v acc -> hash_binding k v :: acc) h []
  |> List.sort compare
  |> List.fold_left (fun acc x -> (acc * 31) lxor x) 3

let fingerprint t =
  let pc_hash fid pc =
    Hashtbl.hash
      ( fid,
        pc.pc_version,
        pc.pc_dist_new,
        pc.pc_egress,
        pc.pc_notify,
        (pc.pc_utype, pc.pc_ver_prev, pc.pc_two_phase, pc.pc_chain),
        (pc.pc_label, pc.pc_counter, pc.pc_cancelled) )
  in
  let int_binding k v = Hashtbl.hash (k, v) in
  let parts =
    [
      Uib.fingerprint t.uib;
      hash_table_sorted t.pending pc_hash;
      hash_table_sorted t.wait_counts int_binding;
      hash_table_sorted t.cong_counts int_binding;
      hash_table_sorted t.frm_sent (fun k () -> Hashtbl.hash k);
      hash_table_sorted t.waiting_on int_binding;
    ]
  in
  List.fold_left (fun acc x -> (acc * 131) lxor x) t.node parts
