(* Reference codecs for the wire and header tests.

   The library serializes byte-aligned schemas a byte at a time and
   encodes P4Update frames with direct stores at fixed offsets.  The
   oracles below take the slowest obvious route instead: header
   instances built field by field by name, then written and read one bit
   at a time, MSB first.  Properties in [Test_p4rt] and [Test_scale]
   check the library against them. *)

module Header = P4rt.Header
module W = P4update.Wire

let write_bits buf ~bit_offset ~width v =
  for i = 0 to width - 1 do
    let bit = (v lsr (width - 1 - i)) land 1 in
    let pos = bit_offset + i in
    let byte_index = pos / 8 and bit_in_byte = 7 - (pos mod 8) in
    let current = Char.code (Bytes.get buf byte_index) in
    let updated =
      if bit = 1 then current lor (1 lsl bit_in_byte)
      else current land lnot (1 lsl bit_in_byte)
    in
    Bytes.set buf byte_index (Char.chr (updated land 0xff))
  done

let read_bits buf ~bit_offset ~width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    let pos = bit_offset + i in
    let byte_index = pos / 8 and bit_in_byte = 7 - (pos mod 8) in
    let bit = (Char.code (Bytes.get buf byte_index) lsr bit_in_byte) land 1 in
    v := (!v lsl 1) lor bit
  done;
  !v

(* Bit-by-bit [Header.emit]: writes [inst] at byte [offset], returns the
   next offset. *)
let emit inst buf offset =
  let schema = Header.schema_of inst in
  let bit = ref (offset * 8) in
  List.iter
    (fun (field, width) ->
      write_bits buf ~bit_offset:!bit ~width (Header.get inst field);
      bit := !bit + width)
    (Header.fields schema);
  offset + Header.byte_size schema

(* Bit-by-bit [Header.extract]. *)
let extract schema buf offset =
  let bit = ref (offset * 8) in
  let inst =
    List.fold_left
      (fun inst (field, width) ->
        let v = read_bits buf ~bit_offset:!bit ~width in
        bit := !bit + width;
        Header.set inst field v)
      (Header.make schema) (Header.fields schema)
  in
  (inst, offset + Header.byte_size schema)

let header schema fields =
  List.fold_left (fun h (field, v) -> Header.set h field v) (Header.make schema) fields

let serialize headers =
  let size = List.fold_left (fun n h -> n + Header.byte_size (Header.schema_of h)) 0 headers in
  let buf = Bytes.make size '\000' in
  ignore (List.fold_left (fun off h -> emit h buf off) 0 headers);
  buf

let eth etype = header W.eth_schema [ ("etype", etype) ]

let control_to_bytes (c : W.control) =
  serialize
    [
      eth W.etype_control;
      header W.p4u_schema
        [
          ("msg_type", W.msg_kind_to_int c.kind);
          ("flow_id", c.flow_id);
          ("version_new", c.version_new);
          ("version_old", c.version_old);
          ("dist_new", c.dist_new);
          ("dist_old", c.dist_old);
          ("update_type", W.update_type_to_int c.update_type);
          ("layer", c.layer);
          ("counter", c.counter);
          ("flow_size", c.flow_size);
          ("egress_port", c.egress_port);
          ("notify_port", c.notify_port);
          ("role", c.role);
          ("src_node", c.src_node);
        ];
    ]

let data_to_bytes (d : W.data) =
  serialize
    [
      eth W.etype_data;
      header W.data_schema
        [
          ("flow_id", d.d_flow_id);
          ("seq", d.seq);
          ("ttl", d.ttl);
          ("origin", d.origin);
          ("dst", d.dst);
          ("tag", d.tag);
          ("ts", d.d_ts);
        ];
    ]

(* Decoders through the parse graph: the verdicts the direct decoders
   must reproduce. *)
let control_of_bytes b = Option.bind (W.packet_of_bytes b) W.control_of_packet
let data_of_bytes b = Option.bind (W.packet_of_bytes b) W.data_of_packet
