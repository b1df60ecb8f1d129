module Header = P4rt.Header
module Packet = P4rt.Packet
module Parser = P4rt.Parser

let etype_control = 0x88B5
let etype_data = 0x0800
let flow_space = 1024
let port_none = 255
let port_local = 254

type msg_kind = Frm | Uim | Unm | Ufm | Cln | Wdm

let msg_kind_to_int = function
  | Frm -> 1 | Uim -> 2 | Unm -> 3 | Ufm -> 4 | Cln -> 5 | Wdm -> 6

let msg_kind_of_int = function
  | 1 -> Some Frm
  | 2 -> Some Uim
  | 3 -> Some Unm
  | 4 -> Some Ufm
  | 5 -> Some Cln
  | 6 -> Some Wdm
  | _ -> None

type update_type = Sl | Dl

let update_type_to_int = function Sl -> 1 | Dl -> 2
let update_type_of_int = function 1 -> Some Sl | 2 -> Some Dl | _ -> None

let role_plain = 0
let role_flow_egress = 1
let role_flow_ingress = 2
let role_segment_egress = 4
let role_gateway = 8
let role_committed = 16
let role_two_phase = 32

let ufm_success = 0
let ufm_alarm_distance = 1
let ufm_alarm_stale = 2
let ufm_alarm_wait_budget = 3
let ufm_alarm_timeout = 4

let eth_schema =
  Header.define ~name:"eth" [ ("dst", 16); ("src", 16); ("etype", 16) ]

let p4u_schema =
  Header.define ~name:"p4u"
    [
      ("msg_type", 8);
      ("flow_id", 16);
      ("version_new", 16);
      ("version_old", 16);
      ("dist_new", 16);
      ("dist_old", 16);
      ("update_type", 8);
      ("layer", 8);
      ("counter", 16);
      ("flow_size", 16);
      ("egress_port", 8);
      ("notify_port", 8);
      ("role", 8);
      ("src_node", 16);
    ]

let data_schema =
  Header.define ~name:"data"
    [
      ("flow_id", 16); ("seq", 32); ("ttl", 8); ("origin", 8); ("dst", 16); ("tag", 16);
      ("ts", 32);
    ]

let parser =
  Parser.create
    [
      {
        Parser.state_name = "start";
        extracts = Some eth_schema;
        transition =
          Select
            ( "etype",
              [ (etype_control, "p4u"); (etype_data, "data") ],
              Accept );
      };
      { Parser.state_name = "p4u"; extracts = Some p4u_schema; transition = Accept };
      { Parser.state_name = "data"; extracts = Some data_schema; transition = Accept };
    ]

(* Field indices, resolved once: per-frame code never walks a field list
   by name.  Encoders build header instances with [Header.of_values] in
   schema definition order. *)
let p4u_field = Header.index p4u_schema
let p4u_msg_type = p4u_field "msg_type"
let p4u_flow_id = p4u_field "flow_id"
let p4u_version_new = p4u_field "version_new"
let p4u_version_old = p4u_field "version_old"
let p4u_dist_new = p4u_field "dist_new"
let p4u_dist_old = p4u_field "dist_old"
let p4u_update_type = p4u_field "update_type"
let p4u_layer = p4u_field "layer"
let p4u_counter = p4u_field "counter"
let p4u_flow_size = p4u_field "flow_size"
let p4u_egress_port = p4u_field "egress_port"
let p4u_notify_port = p4u_field "notify_port"
let p4u_role = p4u_field "role"
let p4u_src_node = p4u_field "src_node"
let data_field = Header.index data_schema
let data_flow_id = data_field "flow_id"
let data_seq = data_field "seq"
let data_ttl = data_field "ttl"
let data_origin = data_field "origin"
let data_dst = data_field "dst"
let data_tag = data_field "tag"
let data_ts = data_field "ts"

(* Header instances are immutable, so one eth header per etype serves
   every packet. *)
let eth_header ~etype = Header.of_values eth_schema [| 0; 0; etype |]
let eth_control = eth_header ~etype:etype_control
let eth_data = eth_header ~etype:etype_data

type control = {
  kind : msg_kind;
  flow_id : int;
  version_new : int;
  version_old : int;
  dist_new : int;
  dist_old : int;
  update_type : update_type;
  layer : int;
  counter : int;
  flow_size : int;
  egress_port : int;
  notify_port : int;
  role : int;
  src_node : int;
}

let control_default kind =
  {
    kind;
    flow_id = 0;
    version_new = 0;
    version_old = 0;
    dist_new = 0;
    dist_old = 0;
    update_type = Sl;
    layer = 0;
    counter = 0;
    flow_size = 0;
    egress_port = port_none;
    notify_port = port_none;
    role = role_plain;
    src_node = 0;
  }

let control_to_packet c =
  Packet.make
    [
      eth_control;
      Header.of_values p4u_schema
        [|
          msg_kind_to_int c.kind; c.flow_id; c.version_new; c.version_old; c.dist_new;
          c.dist_old; update_type_to_int c.update_type; c.layer; c.counter; c.flow_size;
          c.egress_port; c.notify_port; c.role; c.src_node;
        |];
    ]

let control_of_packet pkt =
  match Packet.header pkt p4u_schema with
  | None -> None
  | Some h ->
    let f = Header.get_at h in
    (match (msg_kind_of_int (f p4u_msg_type), update_type_of_int (f p4u_update_type)) with
     | Some kind, Some update_type ->
       Some
         {
           kind;
           flow_id = f p4u_flow_id;
           version_new = f p4u_version_new;
           version_old = f p4u_version_old;
           dist_new = f p4u_dist_new;
           dist_old = f p4u_dist_old;
           update_type;
           layer = f p4u_layer;
           counter = f p4u_counter;
           flow_size = f p4u_flow_size;
           egress_port = f p4u_egress_port;
           notify_port = f p4u_notify_port;
           role = f p4u_role;
           src_node = f p4u_src_node;
         }
     | _ -> None)

type data = {
  d_flow_id : int;
  seq : int;
  ttl : int;
  origin : int;
  dst : int;
  tag : int;
  d_ts : int;
}

let data_to_packet d =
  Packet.make
    [
      eth_data;
      Header.of_values data_schema
        [| d.d_flow_id; d.seq; d.ttl; d.origin; d.dst; d.tag; d.d_ts |];
    ]

let data_of_packet pkt =
  match Packet.header pkt data_schema with
  | None -> None
  | Some h ->
    let f = Header.get_at h in
    Some
      {
        d_flow_id = f data_flow_id;
        seq = f data_seq;
        ttl = f data_ttl;
        origin = f data_origin;
        dst = f data_dst;
        tag = f data_tag;
        d_ts = f data_ts;
      }

let packet_of_bytes bytes =
  match Parser.run parser bytes with
  | pkt -> Some pkt
  | exception Parser.Parse_error _ -> None

(* ---- byte codec --------------------------------------------------------- *)

(* Both wire formats are fully byte-aligned (every field width is a
   multiple of 8), so a control frame is exactly 28 bytes (eth 6 + p4u
   22) and a data frame 22 (eth 6 + data 16), with every field at a fixed
   offset.  The codec below stores and loads those offsets directly: the
   image is the one [Packet.serialize] produces for the same record, and
   the decoders return the verdicts of [packet_of_bytes] +
   [*_of_packet] on any byte string.  Both facts are qcheck properties
   against the Packet path in the tests. *)

let control_bytes_len = 6 + Header.byte_size p4u_schema
let data_bytes_len = 6 + Header.byte_size data_schema

(* Direct MSB-first byte accessors.  Stores mask exactly like
   [Header.set] ([v land (2^w - 1)]): the per-byte [land 0xff] keeps
   only the low [w] bits across the [w/8] stores. *)

let[@inline] put8 b pos v = Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff))

let[@inline] put16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr (v land 0xff))

let[@inline] put32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr (v land 0xff))

let[@inline] get8 b pos = Char.code (Bytes.unsafe_get b pos)

let[@inline] get16 b pos =
  (Char.code (Bytes.unsafe_get b pos) lsl 8) lor Char.code (Bytes.unsafe_get b (pos + 1))

let[@inline] get32 b pos =
  (Char.code (Bytes.unsafe_get b pos) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (pos + 3))

(* Fixed byte offsets (eth: dst@0 src@2 etype@4; payload header at 6). *)

let control_to_bytes (c : control) =
  let b = Bytes.create control_bytes_len in
  put16 b 0 0;
  put16 b 2 0;
  put16 b 4 etype_control;
  put8 b 6 (msg_kind_to_int c.kind);
  put16 b 7 c.flow_id;
  put16 b 9 c.version_new;
  put16 b 11 c.version_old;
  put16 b 13 c.dist_new;
  put16 b 15 c.dist_old;
  put8 b 17 (update_type_to_int c.update_type);
  put8 b 18 c.layer;
  put16 b 19 c.counter;
  put16 b 21 c.flow_size;
  put8 b 23 c.egress_port;
  put8 b 24 c.notify_port;
  put8 b 25 c.role;
  put16 b 26 c.src_node;
  b

let data_to_bytes (d : data) =
  let b = Bytes.create data_bytes_len in
  put16 b 0 0;
  put16 b 2 0;
  put16 b 4 etype_data;
  put16 b 6 d.d_flow_id;
  put32 b 8 d.seq;
  put8 b 12 d.ttl;
  put8 b 13 d.origin;
  put16 b 14 d.dst;
  put16 b 16 d.tag;
  put32 b 18 d.d_ts;
  b

(* A frame shorter than its format, a foreign etype, or an invalid
   msg_type / update_type decodes to [None], as through the parse
   graph. *)

let control_of_bytes bytes =
  if Bytes.length bytes < control_bytes_len || get16 bytes 4 <> etype_control then None
  else
    match (msg_kind_of_int (get8 bytes 6), update_type_of_int (get8 bytes 17)) with
    | Some kind, Some update_type ->
      Some
        {
          kind;
          flow_id = get16 bytes 7;
          version_new = get16 bytes 9;
          version_old = get16 bytes 11;
          dist_new = get16 bytes 13;
          dist_old = get16 bytes 15;
          update_type;
          layer = get8 bytes 18;
          counter = get16 bytes 19;
          flow_size = get16 bytes 21;
          egress_port = get8 bytes 23;
          notify_port = get8 bytes 24;
          role = get8 bytes 25;
          src_node = get16 bytes 26;
        }
    | _ -> None

let[@inline] is_data bytes = Bytes.length bytes >= data_bytes_len && get16 bytes 4 = etype_data

let data_of_bytes bytes =
  if not (is_data bytes) then None
  else
    Some
      {
        d_flow_id = get16 bytes 6;
        seq = get32 bytes 8;
        ttl = get8 bytes 12;
        origin = get8 bytes 13;
        dst = get16 bytes 14;
        tag = get16 bytes 16;
        d_ts = get32 bytes 18;
      }

(* Single fields read in place: -1 on any frame [data_of_bytes] rejects
   (every field is unsigned on the wire, so never negative). *)
let data_seq_of_bytes bytes = if is_data bytes then get32 bytes 8 else -1
let data_flow_id_of_bytes bytes = if is_data bytes then get16 bytes 6 else -1
let data_ttl_of_bytes bytes = if is_data bytes then get8 bytes 12 else -1
let data_dst_of_bytes bytes = if is_data bytes then get16 bytes 14 else -1
let data_tag_of_bytes bytes = if is_data bytes then get16 bytes 16 else -1

(* A forwarded frame: a copy with ttl and tag rewritten, every other
   byte (trailing payload included) unchanged. *)
let data_forward_copy bytes ~ttl ~tag =
  if not (is_data bytes) then invalid_arg "Wire.data_forward_copy: not a data frame";
  let b = Bytes.copy bytes in
  put8 b 12 ttl;
  put16 b 16 tag;
  b

type frame_class = Truncated | Data_frame | Control_frame | Foreign

(* The parse graph's verdict from the base header alone: [parser]
   extracts eth, then the header its etype selects, or accepts any other
   etype after eth. *)
let classify bytes =
  let len = Bytes.length bytes in
  if len < 6 then Truncated
  else
    let etype = get16 bytes 4 in
    if etype = etype_data then if len < data_bytes_len then Truncated else Data_frame
    else if etype = etype_control then
      if len < control_bytes_len then Truncated else Control_frame
    else Foreign

let pp_control fmt c =
  let kind_name = function
    | Frm -> "FRM" | Uim -> "UIM" | Unm -> "UNM" | Ufm -> "UFM" | Cln -> "CLN"
    | Wdm -> "WDM"
  in
  Format.fprintf fmt
    "%s{flow=%d Vn=%d Vo=%d Dn=%d Do=%d type=%s layer=%d C=%d size=%d egr=%d ntf=%d role=%d \
     src=%d}"
    (kind_name c.kind) c.flow_id c.version_new c.version_old c.dist_new c.dist_old
    (match c.update_type with Sl -> "SL" | Dl -> "DL")
    c.layer c.counter c.flow_size c.egress_port c.notify_port c.role c.src_node
