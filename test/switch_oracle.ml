(* The switch's frame path as a literal specification: one function from
   (oracle state, ingress port, frame) to what the switch must do with the
   frame.  It parses with the [Wire.parser] parse graph
   ([Wire.packet_of_bytes]), reads and rewrites header fields by name
   ([Header.get] / [set]) and deparses with [Packet.serialize], so it
   shares nothing with the switch's fixed-offset reads, [Wire.classify]
   or [Wire.data_forward_copy].  [handle_data] keeps the switch program's
   decisions verbatim (only the switch record it reads is this module's
   [t]).  [Test_p4rt] holds [Switch.receive] to it with a differential
   property.

   The control handlers ([handle_uim] and the others) are the switch's own
   code, not reproduced here; the chaos hashes, the mc fingerprints and
   the trace digests pin them.  The reference therefore accepts only the
   control frames the switch drops without running a handler:
   undecodable ones and FRM/UFM, which the switch does not consume. *)

module Header = P4rt.Header
module Packet = P4rt.Packet
module Sim = Dessim.Sim
module Wire = P4update.Wire
module Uib = P4update.Uib
module Switch = P4update.Switch

let host_port = Netsim.port_host

type t = {
  net : Netsim.t; (* the clock of local deliveries *)
  node : int;
  uib : Uib.t;
  stats : Switch.stats;
  frm_sent : (int, unit) Hashtbl.t;
  mutable deliver_hooks : (time:float -> Bytes.t -> unit) list;
}

type emission = { out_port : int; bytes : Bytes.t }

(* What one frame makes: at most one emission and one digest to the
   controller, or a parse error. *)
type outcome = { emission : emission option; digest : Bytes.t option; parse_error : bool }

let dropped = { emission = None; digest = None; parse_error = false }

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

let handle_control pkt =
  (match Wire.control_of_packet pkt with
   | Some { Wire.kind = Wire.Frm | Wire.Ufm; _ } | None -> ()
   | Some _ -> invalid_arg "Switch_oracle: the control handlers are the switch's own");
  dropped

(* The frame the switch receives at [in_port]: a frame with a data
   header takes the data path, any other that parses is dropped unless
   a control handler would run. *)
let receive t ~in_port frame =
  match Wire.packet_of_bytes frame with
  | None ->
    t.stats.parse_errors <- t.stats.parse_errors + 1;
    { dropped with parse_error = true }
  | Some pkt -> (
    match Packet.header pkt Wire.data_schema with
    | Some h ->
      handle_data t frame pkt h ~in_port
        ~flow_id:(Header.get h "flow_id" land (Wire.flow_space - 1))
    | None -> handle_control pkt)

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

(* The reference of node [node] of [net], with its own registers. *)
let create net ~node =
  {
    net;
    node;
    uib = Uib.create ~ports:(Netsim.port_count net ~node);
    stats = no_stats ();
    frm_sent = Hashtbl.create 16;
    deliver_hooks = [];
  }

let on_deliver t f = t.deliver_hooks <- t.deliver_hooks @ [ f ]

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
