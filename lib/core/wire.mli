(** Wire formats of the P4Update protocol.

    Three header schemas ride behind a small ethernet-like base header:
    the control header [p4u] carrying FRM/UIM/UNM/UFM (§6), and the [data]
    header for flow traffic.  Records mirror the header fields so the rest
    of the code never touches raw field names. *)

(** {2 Constants} *)

val etype_control : int
val etype_data : int

val flow_space : int
(** Number of distinct flow ids (register array size),
    {!Topo.Traffic.flow_space}. *)

val port_none : int
(** "no rule" egress-port value *)

val port_local : int
(** "deliver locally" egress-port value (flow egress) *)

(** {2 Message kinds (msg_type field)} *)

type msg_kind =
  | Frm
  | Uim
  | Unm
  | Ufm
  | Cln  (** rule-cleanup packet (§11) *)
  | Wdm
      (** withdraw: controller aborts an update; path switches discard the
          staged (uncommitted) state of [version_new].  Safe because old
          rules persist until final verification (DESIGN §11). *)

val msg_kind_to_int : msg_kind -> int

(** {2 Update types} *)

type update_type = Sl | Dl

val update_type_to_int : update_type -> int

(** {2 Node roles within an update (bit flags in the role field)} *)

val role_flow_egress : int
val role_flow_ingress : int
val role_segment_egress : int
val role_gateway : int

val role_committed : int
(** set in UNMs sent by a node that has already committed the update's
    version (used by the Appendix C consecutive-DL extension) *)

val role_two_phase : int
(** UIM flag: install into the tagged rule bank (2-phase commit, §11);
    forwarding only switches when the ingress starts stamping the new
    tag, giving Reitblatt-style per-packet consistency *)

(** {2 UFM status codes (layer field of an UFM)} *)

val ufm_success : int
val ufm_alarm_distance : int
val ufm_alarm_stale : int
val ufm_alarm_wait_budget : int
val ufm_alarm_timeout : int

(** {2 Schemas} *)

val eth_schema : P4rt.Header.schema
val p4u_schema : P4rt.Header.schema
val data_schema : P4rt.Header.schema

(** Parse graph for the whole protocol (start: eth; select on etype). *)
val parser : P4rt.Parser.t

(** {2 Control message view} *)

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
  flow_size : int;  (** centi-units of link capacity *)
  egress_port : int;
  notify_port : int;
  role : int;
  src_node : int;
}

(** All-zero SL control record with the given kind; fill what you need. *)
val control_default : msg_kind -> control

val control_to_packet : control -> P4rt.Packet.t
val control_of_packet : P4rt.Packet.t -> control option

(** {2 Data packet view} *)

type data = {
  d_flow_id : int;
  seq : int;
  ttl : int;
  origin : int;
  dst : int;  (** destination node id (what a real header's dst address encodes) *)
  tag : int;  (** 2-phase-commit version tag stamped by the ingress (0 = untagged) *)
  d_ts : int;
      (** ingress timestamp in simulated µs, stamped at injection (0 = unset);
          32 bits cover ~71 min of simulated time *)
}

val data_to_packet : data -> P4rt.Packet.t
val data_of_packet : P4rt.Packet.t -> data option

(** Parse raw bytes with {!parser} (None on parse failure). *)
val packet_of_bytes : Bytes.t -> P4rt.Packet.t option

(** {2 Byte codec}

    Both wire formats are fully byte-aligned, so frames have fixed
    sizes (control 28 bytes, data 22) and fixed field offsets.  The
    codec stores and loads those offsets directly, without building a
    packet or running the parse graph.  Every image equals
    [P4rt.Packet.serialize] of {!control_to_packet} / {!data_to_packet},
    and every decode verdict equals {!packet_of_bytes} followed by
    {!control_of_packet} / {!data_of_packet} (qcheck properties in the
    tests). *)

(** Encode into a fresh frame. *)
val control_to_bytes : control -> Bytes.t

(** [control_frame ~kind ...] is [control_to_bytes] of the record with
    these fields, written straight into a fresh frame without building
    the record.  Each field is masked to its width. *)
val control_frame :
  kind:msg_kind ->
  flow_id:int ->
  version_new:int ->
  version_old:int ->
  dist_new:int ->
  dist_old:int ->
  update_type:update_type ->
  layer:int ->
  counter:int ->
  flow_size:int ->
  egress_port:int ->
  notify_port:int ->
  role:int ->
  src_node:int ->
  Bytes.t

val data_to_bytes : data -> Bytes.t

(** [control_of_bytes b] / [data_of_bytes b]: [None] on short frames,
    foreign etypes or invalid msg_type / update_type. *)
val control_of_bytes : Bytes.t -> control option

val data_of_bytes : Bytes.t -> data option

(** The [kind] of [control_of_bytes b] read in place: [None] exactly
    when [control_of_bytes b] is [None].  Allocates nothing. *)
val control_kind_of_bytes : Bytes.t -> msg_kind option

(** One field of a control frame read in place at its fixed offset; none
    allocates.  On a frame {!control_kind_of_bytes} accepts, each equals
    the field of [control_of_bytes b]; the readers do not check the
    frame again, and raise [Invalid_argument] on one shorter than a
    control frame.  The update type is its wire code
    ({!update_type_to_int}). *)
val control_flow_id_of_bytes : Bytes.t -> int

val control_version_new_of_bytes : Bytes.t -> int
val control_version_old_of_bytes : Bytes.t -> int
val control_dist_new_of_bytes : Bytes.t -> int
val control_dist_old_of_bytes : Bytes.t -> int
val control_update_type_of_bytes : Bytes.t -> int
val control_layer_of_bytes : Bytes.t -> int
val control_counter_of_bytes : Bytes.t -> int
val control_flow_size_of_bytes : Bytes.t -> int
val control_egress_port_of_bytes : Bytes.t -> int
val control_notify_port_of_bytes : Bytes.t -> int
val control_role_of_bytes : Bytes.t -> int
val control_src_node_of_bytes : Bytes.t -> int

(** One field of [data_of_bytes b] read in place, or [-1] exactly when
    [data_of_bytes b] is [None]; none allocates. *)
val data_seq_of_bytes : Bytes.t -> int

val data_flow_id_of_bytes : Bytes.t -> int
val data_ttl_of_bytes : Bytes.t -> int
val data_dst_of_bytes : Bytes.t -> int
val data_tag_of_bytes : Bytes.t -> int
val data_ts_of_bytes : Bytes.t -> int

(** [data_forward_copy b ~ttl ~tag] is a copy of data frame [b] with
    [ttl] and [tag] stored (masked to their widths) and every other byte,
    trailing payload included, unchanged.  Raises [Invalid_argument]
    when [data_of_bytes b] is [None]. *)
val data_forward_copy : Bytes.t -> ttl:int -> tag:int -> Bytes.t

(** The verdict of running {!parser} over a frame: [Truncated] when it
    raises a parse error (under 6 bytes, or a data / control etype
    shorter than its format), [Data_frame] / [Control_frame] when it
    extracts a data / p4u header, [Foreign] when it accepts the base
    header of any other etype.  Only the length and the etype are read. *)
type frame_class = Truncated | Data_frame | Control_frame | Foreign

val classify : Bytes.t -> frame_class

val pp_control : Format.formatter -> control -> unit
