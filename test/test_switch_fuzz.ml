(* Hostile frames at the switch (ROADMAP 4c, first slice).

   Random byte strings, truncated frames and bit-flipped frames of 0-40
   bytes reach the switches through [Netsim], on data ports and on the
   CPU port.  Nothing may raise, the forwarding state of an unrelated
   flow must keep Thm. 1-4, and a legitimate update of that flow
   afterwards must still complete.

   The well-formed frames that get flipped or truncated address a decoy
   flow slot.  Its id differs from the audited flow's in all ten
   register-index bits, and at most three bits are flipped, so no
   hostile frame can alias the audited flow's registers: whatever the
   decoy slot ends up holding, the audited flow's consistency is the
   switches' own local verification at work.  Link capacities are raised
   so that reservations forged on the decoy slot cannot starve the
   audited update of bandwidth. *)

open P4update

let target_id = 0x00F
let decoy_id = 0x3F0

type dest = Cpu | Data_port of int  (* index into the node's neighbor list *)

type frame = { f_node : int; f_dest : dest; f_bytes : string }

let pp_frame f =
  Printf.sprintf "{node=%d %s len=%d %s}" f.f_node
    (match f.f_dest with Cpu -> "cpu" | Data_port i -> "port#" ^ string_of_int i)
    (String.length f.f_bytes)
    (String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq f.f_bytes))))

(* A well-formed frame around the decoy slot (or a data frame of either
   flow) with adversarial field values. *)
let valid_frame_gen =
  QCheck.Gen.(
    let* control = bool in
    if control then
      let* kind = oneofl [ Wire.Frm; Uim; Unm; Ufm; Cln; Wdm ] in
      let* update_type = oneofl [ Wire.Sl; Dl ] in
      let* version_new = int_bound 6 in
      let* version_old = int_bound 6 in
      let* dist_new = int_bound 10 in
      let* dist_old = int_bound 10 in
      let* layer = int_bound 3 in
      let* counter = int_bound 4 in
      let* flow_size = int_bound 300 in
      let* egress_port = oneofl [ 0; 1; 2; 3; Wire.port_local; Wire.port_none ] in
      let* notify_port = oneofl [ 0; 1; 2; 3; Wire.port_none ] in
      let* role = int_bound 63 in
      let* src_node = int_bound 9 in
      return
        (Wire.control_to_bytes
           {
             Wire.kind; flow_id = decoy_id; version_new; version_old; dist_new; dist_old;
             update_type; layer; counter; flow_size; egress_port; notify_port; role; src_node;
           })
    else
      let* d_flow_id = oneofl [ target_id; decoy_id ] in
      let* seq = int_bound 1000 in
      let* ttl = int_bound 64 in
      let* origin = int_bound 8 in
      let* dst = int_bound 8 in
      let* tag = int_bound 4 in
      return (Wire.data_to_bytes { Wire.d_flow_id; seq; ttl; origin; dst; tag; d_ts = 0 }))

let flip_bits bytes flips =
  let b = Bytes.copy bytes in
  List.iter
    (fun bit ->
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8)))))
    flips;
  b

let payload_gen =
  QCheck.Gen.(
    frequency
      [
        (1, string_size ~gen:char (int_range 0 40));
        ( 1,
          let* b = valid_frame_gen in
          let* len = int_bound (Bytes.length b - 1) in
          return (Bytes.sub_string b 0 len) );
        ( 2,
          let* b = valid_frame_gen in
          let* flips = list_size (int_range 1 3) (int_bound ((Bytes.length b * 8) - 1)) in
          let* extra = string_size ~gen:char (int_range 0 (40 - Bytes.length b)) in
          return (Bytes.to_string (flip_bits b flips) ^ extra) );
      ])

let frame_gen =
  QCheck.Gen.(
    let* f_node = int_bound 7 in
    let* cpu = bool in
    let* port = int_bound 3 in
    let* f_bytes = payload_gen in
    return { f_node; f_dest = (if cpu then Cpu else Data_port port); f_bytes })

let deliver (w : Harness.World.t) f =
  let bytes = Bytes.of_string f.f_bytes in
  match f.f_dest with
  | Cpu -> Netsim.controller_transmit w.net ~to_:f.f_node bytes
  | Data_port i ->
    let neighbors = Topo.Graph.neighbors (Netsim.graph w.net) f.f_node in
    let from = List.nth neighbors (i mod List.length neighbors) in
    Netsim.transmit w.net ~from
      ~port:(Netsim.port_of_neighbor w.net ~node:from ~neighbor:f.f_node)
      bytes

let fig1_with_headroom () =
  let topo = Topo.Topologies.fig1 () in
  List.iter
    (fun (e : Topo.Graph.edge) ->
      Topo.Graph.set_capacity topo.Topo.Topologies.graph e.Topo.Graph.u e.Topo.Graph.v 1e4)
    (Topo.Graph.edges topo.Topo.Topologies.graph);
  topo

let run_hostile frames =
  let w = Harness.World.make ~seed:5 (fig1_with_headroom ()) in
  let target =
    Harness.World.install_flow ~flow_id:target_id w ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path
  in
  ignore
    (Harness.World.install_flow ~flow_id:decoy_id w ~src:1 ~dst:6 ~size:100
       ~path:[ 1; 2; 3; 4; 5; 6 ]);
  let monitor = Harness.Invariants.create w in
  List.iter (deliver w) frames;
  ignore (Harness.World.run w);
  Harness.Invariants.check_structural monitor [ target ];
  let version =
    Controller.update_flow w.controller ~flow_id:target_id
      ~new_path:Topo.Topologies.fig1_new_path ~update_type:Wire.Sl ()
  in
  ignore (Harness.World.run w);
  Harness.Invariants.check_structural monitor [ target ];
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (match Harness.Invariants.violations monitor with
   | [] -> ()
   | v :: _ -> fail "%s" (Harness.Invariants.violation_to_string v));
  (match Controller.completion_time w.controller ~flow_id:target_id ~version with
   | Some _ -> ()
   | None -> fail "update to version %d did not complete" version);
  match Harness.Fwdcheck.trace w.net w.switches ~flow_id:target_id ~src:0 with
  | Harness.Fwdcheck.Reaches_egress path when path = Topo.Topologies.fig1_new_path -> true
  | o -> fail "after the update: %s" (Format.asprintf "%a" Harness.Fwdcheck.pp_outcome o)

let prop_hostile_frames =
  QCheck.Test.make ~name:"hostile frames: no raise, Thm. 1-4, update completes" ~count:150
    (QCheck.make
       ~print:(fun fs -> String.concat "\n" (List.map pp_frame fs))
       QCheck.Gen.(list_size (int_range 1 40) frame_gen))
    run_hostile

let suite = [ QCheck_alcotest.to_alcotest prop_hostile_frames ]
