(* The switch's program hosted in the [P4rt.Pipeline] interpreter, as the
   switch ran it before it executed its frames directly: the parse graph
   [Wire.parser] walks the frame, [ingress_control] and [handle_data] below
   are the context-based control blocks kept verbatim (only the switch
   record they read is this module's [t]).  [Test_p4rt] holds
   [Switch.receive] to it with a differential property.

   The control handlers ([handle_uim] and the others) are the switch's own
   code, not reproduced here; the chaos hashes, the mc fingerprints and
   the trace digests pin them.  The reference therefore accepts only the
   control frames the switch drops without running a handler:
   undecodable ones and FRM/UFM, which the switch does not consume. *)

module Pipeline = P4rt.Pipeline
module Sim = Dessim.Sim
module Wire = P4update.Wire
module Uib = P4update.Uib
module Switch = P4update.Switch

let host_port = Switch.host_port

type t = {
  net : Netsim.t; (* the clock of local deliveries *)
  node : int;
  uib : Uib.t;
  stats : Switch.stats;
  frm_sent : (int, unit) Hashtbl.t;
  mutable deliver_hooks : (time:float -> Wire.data -> unit) list;
}

(* Data-header fields the forwarding path reads and rewrites in place. *)
let f_flow_id = Pipeline.field Wire.data_schema "flow_id"
let f_ttl = Pipeline.field Wire.data_schema "ttl"
let f_dst = Pipeline.field Wire.data_schema "dst"
let f_tag = Pipeline.field Wire.data_schema "tag"

(* [flow_id] is already masked to a register index. *)
let handle_data t ctx ~flow_id =
  let u = t.uib in
  let from_host = Pipeline.ingress_port ctx = host_port in
  (* The ingress stamps packets with the active tag (2-phase commit). *)
  let tag =
    let tag = Pipeline.get ctx f_tag in
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
      Pipeline.digest ctx
        (Wire.control_to_bytes
           {
             (Wire.control_default Wire.Frm) with
             flow_id;
             (* the clone of the first packet carries the destination *)
             dist_new = Pipeline.get ctx f_dst;
             src_node = t.node;
           })
    end
    else t.stats.dropped_no_rule <- t.stats.dropped_no_rule + 1;
    Pipeline.mark_to_drop ctx
  end
  else if port = Wire.port_local then begin
    t.stats.delivered <- t.stats.delivered + 1;
    (* Local delivery bypasses [Netsim.transmit], so [Netsim.on_delivery]
       observers never see it; the egress hook is the only place a live
       auditor learns a packet left the network. *)
    (match t.deliver_hooks with
     | [] -> ()
     | hooks -> (
       match Wire.data_of_bytes (Pipeline.frame ctx) with
       | Some d ->
         let d = { d with Wire.d_flow_id = flow_id; tag } in
         let time = Sim.now (Netsim.sim t.net) in
         List.iter (fun f -> f ~time d) hooks
       | None -> () (* the parse path holds a data header *)));
    Pipeline.mark_to_drop ctx
  end
  else
    let ttl = Pipeline.get ctx f_ttl in
    if ttl <= 1 then begin
      t.stats.dropped_ttl <- t.stats.dropped_ttl + 1;
      Pipeline.mark_to_drop ctx
    end
    else begin
      t.stats.forwarded <- t.stats.forwarded + 1;
      (* The first write copies the frame; the second lands in the copy. *)
      Pipeline.set ctx f_ttl (ttl - 1);
      Pipeline.set ctx f_tag tag;
      Pipeline.set_egress ctx port
    end

let handle_control _t ctx =
  (match Wire.control_of_bytes (Pipeline.frame ctx) with
   | Some { Wire.kind = Wire.Frm | Wire.Ufm; _ } | None -> ()
   | Some _ -> invalid_arg "Switch_oracle: the control handlers are the switch's own");
  Pipeline.mark_to_drop ctx

(* Data frames, the common case, are told by their parse path and read
   in place; control frames are decoded from the frame. *)
let ingress_control t ctx =
  if Pipeline.valid ctx Wire.data_schema then
    handle_data t ctx ~flow_id:(Pipeline.get ctx f_flow_id land (Wire.flow_space - 1))
  else handle_control t ctx

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
  }

(* The reference of node [node] of [net], with its own registers. *)
let create net ~node =
  let t =
    {
      net;
      node;
      uib = Uib.create ~ports:(Netsim.port_count net ~node);
      stats = no_stats ();
      frm_sent = Hashtbl.create 16;
      deliver_hooks = [];
    }
  in
  let pipe =
    Pipeline.create
      ~name:(Printf.sprintf "p4update-sw%d" node)
      ~registers:[] ~tables:[]
      { Pipeline.prog_parser = Wire.parser; prog_ingress = ingress_control t; prog_egress = ignore }
  in
  (t, pipe)

let on_deliver t f = t.deliver_hooks <- t.deliver_hooks @ [ f ]

(* ------------------------------------------------------------------ *)
(* Observing the switch                                                 *)
(* ------------------------------------------------------------------ *)

type emission = { out_port : int; bytes : Bytes.t }

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
