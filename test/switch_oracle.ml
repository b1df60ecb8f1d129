(* The switch's frame path as a literal specification: one device, on a
   network of its own, that takes (ingress port, frame) and does what the
   switch must do with the frame.  It parses with the [Wire.parser] parse
   graph ([Wire.packet_of_bytes]), reads and rewrites data header fields
   by name ([Header.get] / [set]) and deparses with [Packet.serialize],
   so it shares nothing with the switch's fixed-offset reads,
   [Wire.classify] or [Wire.data_forward_copy].

   The control handlers are the record-based program the switch ran
   before it read control frames in place: each frame is decoded into a
   [Wire.control] record, every message it sends is built as a record
   and encoded with [Wire.control_to_bytes], and a deferred commit or a
   waiting notification resubmits the re-encoded record.  [handle_data]
   and the control handlers keep the switch program's decisions verbatim
   (only the switch record they read is this module's [t]); tracing is
   left out, as the reference runs without a sink.  [Test_p4rt] holds
   [Switch.receive] to it with a differential property. *)

module Header = P4rt.Header
module Packet = P4rt.Packet
module Sim = Dessim.Sim
module Wire = P4update.Wire
module Uib = P4update.Uib
module Verify = P4update.Verify
module Congestion = P4update.Congestion
module Switch = P4update.Switch

let host_port = Netsim.port_host
let wait_budget = 500
let congestion_budget = 10_000

type pending_commit = {
  pc_version : int;
  pc_dist_new : int;
  pc_egress : int;
  pc_notify : int;
  pc_size : int;
  pc_utype : int;
  pc_ver_prev : int;
  pc_two_phase : bool;
  mutable pc_chain : bool;
  mutable pc_label : int;
  mutable pc_counter : int;
  mutable pc_cancelled : bool;
  pc_resubmit_bytes : Bytes.t;
}

type action =
  | Schedule_commit of int * pending_commit
  | Send_upstream of Wire.control * int
  | Send_ufm of Wire.control
  | Resubmit_bytes of Bytes.t

type t = {
  net : Netsim.t; (* the reference's own network *)
  node : int;
  uib : Uib.t;
  stats : Switch.stats;
  pending : (int, pending_commit) Hashtbl.t;
  wait_counts : (int, int) Hashtbl.t;
  cong_counts : (int, int) Hashtbl.t;
  frm_sent : (int, unit) Hashtbl.t;
  waiting_on : (int, int) Hashtbl.t;
  mutable queue : action list;
  mutable digest : Bytes.t option;
  mutable deliver_hooks : (time:float -> Bytes.t -> unit) list;
  mutable watchdog_ms : float option;
  mutable consecutive_dl : bool;
  mutable label_guard : bool;
  mutable gateway_guard : bool;
  mutable priority_gate : bool;
}

type emission = { out_port : int; bytes : Bytes.t }

(* What one frame makes before its deferred actions run: at most one
   emission and one digest to the controller, or a parse error. *)
type outcome = { emission : emission option; digest : Bytes.t option; parse_error : bool }

let dropped = { emission = None; digest = None; parse_error = false }
let push_action t a = t.queue <- a :: t.queue

(* ------------------------------------------------------------------ *)
(* Data frames                                                          *)
(* ------------------------------------------------------------------ *)

(* [flow_id] is already masked to a register index; [h] is the data
   header of [pkt], the parse of [frame]. *)
let handle_data t frame pkt h ~in_port ~flow_id =
  let u = t.uib in
  let from_host = in_port = host_port in
  (* The ingress stamps packets with the active tag (2-phase commit). *)
  let tag =
    let tag = Header.get h "tag" in
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
      let frm =
        Wire.control_to_bytes
          {
            (Wire.control_default Wire.Frm) with
            flow_id;
            (* the clone of the first packet carries the destination *)
            dist_new = Header.get h "dst";
            src_node = t.node;
          }
      in
      { dropped with digest = Some frm }
    end
    else begin
      t.stats.dropped_no_rule <- t.stats.dropped_no_rule + 1;
      dropped
    end
  end
  else if port = Wire.port_local then begin
    t.stats.delivered <- t.stats.delivered + 1;
    (* Local delivery bypasses [Netsim.transmit], so [Netsim.on_delivery]
       observers never see it; the egress hook is the only place a live
       auditor learns a packet left the network. *)
    let time = Sim.now (Netsim.sim t.net) in
    List.iter (fun f -> f ~time frame) t.deliver_hooks;
    dropped
  end
  else
    let ttl = Header.get h "ttl" in
    if ttl <= 1 then begin
      t.stats.dropped_ttl <- t.stats.dropped_ttl + 1;
      dropped
    end
    else begin
      t.stats.forwarded <- t.stats.forwarded + 1;
      let h = Header.set (Header.set h "ttl" (ttl - 1)) "tag" tag in
      let headers =
        List.map
          (fun x -> if Header.schema_of x == Wire.data_schema then h else x)
          pkt.Packet.headers
      in
      let bytes = Packet.serialize { pkt with headers } in
      { dropped with emission = Some { out_port = port; bytes } }
    end

(* ------------------------------------------------------------------ *)
(* Control frames: messages and the commit machinery                    *)
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
    update_type = (if utype = Wire.update_type_to_int Wire.Dl then Wire.Dl else Wire.Sl);
    layer;
    counter = Uib.counter u flow_id;
    flow_size = Uib.flow_size u flow_id;
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

let notify_ctl t msg = Netsim.notify_controller t.net ~from:t.node (Wire.control_to_bytes msg)

let rec send_upstream t msg ~port =
  if port <> Wire.port_none then
    Netsim.transmit t.net ~from:t.node ~port (Wire.control_to_bytes msg)

and fire_commit t flow_id pc =
  let u = t.uib in
  if
    pc.pc_cancelled
    || (not (Netsim.node_is_up t.net ~node:t.node))
    || Uib.ver_cur u flow_id >= pc.pc_version
    || Uib.withdrawn_version u flow_id >= pc.pc_version
  then begin
    match Hashtbl.find_opt t.pending flow_id with
    | Some staged when staged == pc -> Hashtbl.remove t.pending flow_id
    | Some _ | None -> ()
  end
  else begin
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
        (match Hashtbl.find_opt t.waiting_on flow_id with
         | Some port ->
           Congestion.clear_contention u ~port;
           Hashtbl.remove t.waiting_on flow_id
         | None -> ());
        t.stats.alarms <- t.stats.alarms + 1;
        notify_ctl t
          (ufm ~flow_id ~version:pc.pc_version ~status:Wire.ufm_alarm_wait_budget ~src:t.node)
      end
    | Congestion.Proceed ->
      (match Hashtbl.find_opt t.waiting_on flow_id with
       | Some port ->
         Congestion.clear_contention u ~port;
         Hashtbl.remove t.waiting_on flow_id
       | None -> ());
      let old_port = Uib.egress_port u flow_id in
      let old_size = if Uib.cleaned u flow_id = 1 then 0 else Uib.flow_size u flow_id in
      Uib.set_cleaned u flow_id 0;
      Congestion.apply_move u ~old_port ~new_port:pc.pc_egress ~old_size ~new_size:pc.pc_size;
      Uib.set_ver_prev u flow_id pc.pc_ver_prev;
      Uib.set_dist_prev u flow_id pc.pc_label;
      Uib.set_ver_cur u flow_id pc.pc_version;
      Uib.set_dist_cur u flow_id pc.pc_dist_new;
      if pc.pc_two_phase then begin
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
      if old_port <> Wire.port_none && old_port <> Wire.port_local && old_port <> pc.pc_egress
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
      notify_after_commit t flow_id pc
  end

and notify_after_commit t flow_id pc =
  let u = t.uib in
  if pc.pc_notify <> Wire.port_none then
    let layer = if Uib.dist_cur u flow_id = 0 then 1 else 2 in
    send_upstream t (unm_of_committed t ~flow_id ~layer ~utype:pc.pc_utype) ~port:pc.pc_notify
  else begin
    if pc.pc_two_phase then Uib.set_stamp_tag u flow_id pc.pc_version;
    let is_dl = pc.pc_utype = Wire.update_type_to_int Wire.Dl in
    if (not is_dl) || Uib.dist_prev u flow_id = 0 then
      if Uib.ufm_sent u flow_id < pc.pc_version then begin
        Uib.set_ufm_sent u flow_id pc.pc_version;
        notify_ctl t (ufm ~flow_id ~version:pc.pc_version ~status:Wire.ufm_success ~src:t.node)
      end
  end

let schedule_commit t flow_id pc =
  let supersedes =
    match Hashtbl.find_opt t.pending flow_id with
    | Some old when old.pc_version < pc.pc_version ->
      old.pc_cancelled <- true;
      true
    | Some old -> old.pc_cancelled
    | None -> true
  in
  if supersedes then begin
    Hashtbl.replace t.pending flow_id pc;
    let unchanged =
      Uib.egress_port t.uib flow_id = pc.pc_egress && Uib.flow_size t.uib flow_id = pc.pc_size
    in
    let delay = if unchanged then 0.0 else Netsim.rule_update_delay t.net ~node:t.node in
    Sim.schedule (Netsim.sim t.net) ~delay (fun () -> fire_commit t flow_id pc)
  end

let alarm t ~flow_id ~version ~status =
  t.stats.alarms <- t.stats.alarms + 1;
  t.digest <- Some (Wire.control_to_bytes (ufm ~flow_id ~version ~status ~src:t.node))

let arm_watchdog t ~flow_id ~version timeout_ms =
  Sim.schedule (Netsim.sim t.net) ~delay:timeout_ms (fun () ->
      if
        Uib.ver_cur t.uib flow_id < version
        && Uib.uim_version t.uib flow_id = version
        && Uib.withdrawn_version t.uib flow_id < version
      then begin
        t.stats.alarms <- t.stats.alarms + 1;
        notify_ctl t (ufm ~flow_id ~version ~status:Wire.ufm_alarm_timeout ~src:t.node)
      end)

(* ------------------------------------------------------------------ *)
(* Control frames: the handlers                                         *)
(* ------------------------------------------------------------------ *)

let handle_uim t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  (* The UIB stages from a frame; [Test_uib] holds [Uib.stage_uim] to
     its own oracle. *)
  let accepted = Uib.stage_uim u flow_id (Wire.control_to_bytes c) in
  if (not accepted) && c.version_new = Uib.uim_version u flow_id then begin
    (match t.watchdog_ms with
     | Some timeout_ms when Uib.ver_cur u flow_id < c.version_new ->
       arm_watchdog t ~flow_id ~version:c.version_new timeout_ms
     | Some _ | None -> ());
    if Uib.ver_cur u flow_id >= c.version_new && Uib.notify_port u flow_id <> Wire.port_none
    then begin
      let layer = if Uib.dist_cur u flow_id = 0 then 1 else 2 in
      push_action t
        (Send_upstream
           ( unm_of_committed t ~flow_id ~layer ~utype:(Uib.last_type u flow_id),
             Uib.notify_port u flow_id ))
    end;
    if
      Uib.ver_cur u flow_id >= c.version_new
      && c.role land Wire.role_flow_ingress <> 0
      && (c.update_type = Wire.Sl || Uib.dist_prev u flow_id = 0)
    then
      push_action t
        (Send_ufm (ufm ~flow_id ~version:c.version_new ~status:Wire.ufm_success ~src:t.node))
  end;
  if accepted then begin
    Hashtbl.remove t.wait_counts flow_id;
    (match t.watchdog_ms with
     | Some timeout_ms -> arm_watchdog t ~flow_id ~version:c.version_new timeout_ms
     | None -> ());
    let utype = Wire.update_type_to_int c.update_type in
    if c.role land Wire.role_flow_egress <> 0 then
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
               pc_chain = true;
               pc_label = Uib.dist_cur u flow_id;
               pc_counter = 0;
               pc_cancelled = false;
               pc_resubmit_bytes = Wire.control_to_bytes c;
             } ))
    else if
      c.update_type = Wire.Dl
      && c.role land Wire.role_segment_egress <> 0
      && c.notify_port <> Wire.port_none
      && ((not t.gateway_guard) || Uib.egress_port u flow_id <> Wire.port_none)
    then begin
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

let handle_unm_verified t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  let node = node_view_of u flow_id in
  let dual = c.update_type = Wire.Dl && Uib.uim_type u flow_id = Wire.update_type_to_int Wire.Dl in
  let decision =
    if dual then
      Verify.dl_verify ~consecutive:t.consecutive_dl ~label_guard:t.label_guard node
        (unm_view_of c)
    else Verify.sl_verify node (unm_view_of c)
  in
  match decision with
  | Verify.Commit source ->
    let utype = Uib.uim_type u flow_id in
    let label, counter, ver_prev =
      match source with
      | Verify.Via_sl -> (Uib.dist_cur u flow_id, 0, Uib.ver_cur u flow_id)
      | Verify.Via_dl_inside -> (c.dist_old, c.counter + 1, c.version_new - 1)
      | Verify.Via_dl_gateway -> (c.dist_old, c.counter + 1, c.version_old)
    in
    (match Hashtbl.find_opt t.pending flow_id with
     | Some pc when pc.pc_version = c.version_new && not pc.pc_cancelled ->
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
              } )))
  | Verify.Inherit_and_pass ->
    Uib.set_dist_prev u flow_id c.dist_old;
    Uib.set_counter u flow_id (c.counter + 1);
    if c.role land Wire.role_committed <> 0 then Uib.set_chain_ok u flow_id 1;
    let notify = Uib.notify_port u flow_id in
    if notify <> Wire.port_none then
      push_action t
        (Send_upstream
           (unm_of_committed t ~flow_id ~layer:c.layer ~utype:(Uib.last_type u flow_id), notify))
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

let handle_unm t (c : Wire.control) =
  let u = t.uib in
  if
    not
      (Uib.withdrawn_version u c.flow_id >= c.version_new
      && Uib.ver_cur u c.flow_id < c.version_new)
  then handle_unm_verified t c

let handle_withdraw t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  let version = c.version_new in
  if Uib.ver_cur u flow_id < version then begin
    ignore (Uib.withdraw u flow_id ~version);
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
    t.stats.withdrawals <- t.stats.withdrawals + 1
  end

let handle_cleanup t (c : Wire.control) =
  let u = t.uib in
  let flow_id = c.flow_id in
  if Uib.uim_version u flow_id < c.version_new && Uib.cleaned u flow_id = 0 then begin
    let port = Uib.egress_port u flow_id in
    if port <> Wire.port_none && port <> Wire.port_local then begin
      Uib.release u port (Uib.flow_size u flow_id);
      Uib.set_cleaned u flow_id 1;
      push_action t
        (Send_upstream ({ c with flow_size = Uib.flow_size u flow_id; src_node = t.node }, port))
    end
  end

let valid_port t port =
  port = Wire.port_none || port = Wire.port_local
  || (port >= 0 && port < Netsim.port_count t.net ~node:t.node)

(* The record is the parse graph's, flow id masked to a register index. *)
let handle_control t pkt =
  (match Wire.control_of_packet pkt with
   | Some c ->
     let c =
       if c.Wire.flow_id < Wire.flow_space then c
       else { c with Wire.flow_id = c.Wire.flow_id land (Wire.flow_space - 1) }
     in
     (match c.kind with
      | Wire.Uim when valid_port t c.egress_port && valid_port t c.notify_port -> handle_uim t c
      | Wire.Uim -> ()
      | Wire.Unm -> handle_unm t c
      | Wire.Cln -> handle_cleanup t c
      | Wire.Wdm -> handle_withdraw t c
      | Wire.Frm | Wire.Ufm -> ())
   | None -> ());
  let digest = t.digest in
  t.digest <- None;
  { dropped with digest }

let run_action t = function
  | Schedule_commit (flow_id, pc) -> schedule_commit t flow_id pc
  | Send_upstream (msg, port) -> send_upstream t msg ~port
  | Send_ufm msg -> notify_ctl t msg
  | Resubmit_bytes bytes -> Netsim.resubmit t.net ~node:t.node bytes

(* ------------------------------------------------------------------ *)
(* One frame                                                            *)
(* ------------------------------------------------------------------ *)

(* The frame the switch receives at [in_port]: a frame with a data
   header takes the data path, any other that parses the control path.
   Its emission and digest leave first, then the deferred actions run,
   on the reference's network; the outcome says what left first. *)
let receive t ~in_port frame =
  let o =
    match Wire.packet_of_bytes frame with
    | None ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      { dropped with parse_error = true }
    | Some pkt -> (
      match Packet.header pkt Wire.data_schema with
      | Some h ->
        handle_data t frame pkt h ~in_port
          ~flow_id:(Header.get h "flow_id" land (Wire.flow_space - 1))
      | None -> handle_control t pkt)
  in
  Option.iter (fun e -> Netsim.transmit t.net ~from:t.node ~port:e.out_port e.bytes) o.emission;
  Option.iter (Netsim.notify_controller t.net ~from:t.node) o.digest;
  let queue = List.rev t.queue in
  t.queue <- [];
  List.iter (run_action t) queue;
  o

let no_stats () =
  {
    Switch.delivered = 0;
    forwarded = 0;
    dropped_no_rule = 0;
    dropped_ttl = 0;
    commits = 0;
    alarms = 0;
    waits = 0;
    congestion_defers = 0;
    withdrawals = 0;
    parse_errors = 0;
  }

(* Port capacities come straight from the topology, in centi-units. *)
let install_port_capacities net ~node u =
  let graph = Netsim.graph net in
  List.iteri
    (fun port neighbor ->
      Uib.set_port_capacity u port
        (int_of_float (Topo.Graph.capacity graph node neighbor *. 100.0)))
    (Topo.Graph.neighbors graph node)

(* The reference of node [node] of [net], with its own registers.  It
   does not attach itself to [net]: frames reach it through [receive]. *)
let create net ~node =
  let u = Uib.create ~ports:(Netsim.port_count net ~node) in
  install_port_capacities net ~node u;
  {
    net;
    node;
    uib = u;
    stats = no_stats ();
    pending = Hashtbl.create 16;
    wait_counts = Hashtbl.create 16;
    cong_counts = Hashtbl.create 16;
    frm_sent = Hashtbl.create 16;
    waiting_on = Hashtbl.create 16;
    queue = [];
    digest = None;
    deliver_hooks = [];
    watchdog_ms = None;
    consecutive_dl = false;
    label_guard = true;
    gateway_guard = true;
    priority_gate = true;
  }

let on_deliver t f = t.deliver_hooks <- t.deliver_hooks @ [ f ]

(* The digest [Switch.fingerprint] computes, over this module's state. *)
let fingerprint t =
  let sorted h hash_binding =
    Hashtbl.fold (fun k v acc -> hash_binding k v :: acc) h []
    |> List.sort compare
    |> List.fold_left (fun acc x -> (acc * 31) lxor x) 3
  in
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
      sorted t.pending pc_hash;
      sorted t.wait_counts int_binding;
      sorted t.cong_counts int_binding;
      sorted t.frm_sent (fun k () -> Hashtbl.hash k);
      sorted t.waiting_on int_binding;
    ]
  in
  List.fold_left (fun acc x -> (acc * 131) lxor x) t.node parts

(* ------------------------------------------------------------------ *)
(* Observing the switch                                                 *)
(* ------------------------------------------------------------------ *)

(* [capture net ~node f] runs [f ()] and returns what node [node] sent
   meanwhile: its data-port emissions, in order, and its messages to the
   controller.  Both are taken off the network's fault hooks, so neither
   is delivered. *)
let capture net ~node f =
  let emissions = ref [] and digests = ref [] in
  Netsim.set_data_fault net (fun ~from ~to_ bytes ->
      if from <> node then Netsim.Deliver
      else begin
        let out_port = Netsim.port_of_neighbor net ~node ~neighbor:to_ in
        emissions := { out_port; bytes = Bytes.copy bytes } :: !emissions;
        Netsim.Drop
      end);
  Netsim.set_control_fault net (fun ~dir bytes ->
      match dir with
      | Netsim.To_controller n when n = node ->
        digests := Bytes.copy bytes :: !digests;
        Netsim.Drop
      | _ -> Netsim.Deliver);
  Fun.protect
    ~finally:(fun () ->
      Netsim.clear_data_fault net;
      Netsim.clear_control_fault net)
    f;
  (List.rev !emissions, List.rev !digests)
