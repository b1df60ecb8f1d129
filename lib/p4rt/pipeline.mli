(** BMv2-style pipeline: parser → ingress control → egress control →
    deparser, with the v1model primitives P4Update relies on: register
    access, table application, [clone], [resubmit] and controller digests.

    A program is a pair of control functions over a per-packet context.
    Registers and tables are created by the program author and registered
    here so the control plane can reach them by name. *)

type instance_kind = Normal | Cloned | Resubmitted

(** Per-packet context: the packet, its ingress port and instance kind,
    and the forwarding decisions made so far.  It is fresh for each packet
    (§2.1); registers persist in the enclosing pipeline.

    The packet is held as its frame bytes plus the parser's {!Parser.path}
    through them: controls read and write header fields in place through
    {!field} handles.  The received buffer is never written: the first
    write copies it, as does a write after the frame was handed out
    ({!frame}, an emission, a resubmission or a clone snapshot). *)
type ctx

type program = {
  prog_parser : Parser.t;
  prog_ingress : ctx -> unit;
  prog_egress : ctx -> unit;
}

type t

type emission = { out_port : int; bytes : Bytes.t }

type outcome = {
  emissions : emission list;
  resubmitted : Bytes.t option;
  to_controller : Bytes.t list;  (** digests, in the order they were made *)
}

val create :
  name:string ->
  registers:Register.t list ->
  tables:Table.t list ->
  program ->
  t

val name : t -> string

(** {2 Context operations (for use inside control functions)} *)

(** A header field resolved once, for {!get}/{!set} on any packet.
    Raises [Invalid_argument] on unknown fields. *)
type field

val field : Header.schema -> string -> field

(** [valid ctx schema]: the packet carries a header of [schema] (P4's
    [isValid]). *)
val valid : ctx -> Header.schema -> bool

(** [get ctx f] / [set ctx f v] read and write [f] in the first header
    of its schema, in the frame.  [set] truncates to the field width.
    Both raise [Invalid_argument] when that header is not {!valid}. *)
val get : ctx -> field -> int

val set : ctx -> field -> int -> unit

(** The packet's wire image as it stands.  The caller may keep it but
    must not write to it. *)
val frame : ctx -> Bytes.t

(** [packet ctx] materializes the packet as it stands, for a control
    that wants header instances: on the received frame it equals
    [Parser.run]. *)
val packet : ctx -> Packet.t

(** [set_packet ctx pkt] replaces the packet: the deparser lays [pkt]
    out into a fresh frame, which field handles then address. *)
val set_packet : ctx -> Packet.t -> unit

val ingress_port : ctx -> int
val instance : ctx -> instance_kind

val set_egress : ctx -> int -> unit
val egress_spec : ctx -> int option
val mark_to_drop : ctx -> unit

(** [clone ctx ~session] emits a copy of the packet (as it stands at the
    end of ingress) through the egress control toward the port bound to
    [session]. *)
val clone : ctx -> session:int -> unit

(** Re-inject the current packet into the ingress pipeline (the waiting
    loop of §8).  The surrounding network layer applies the resubmission
    delay. *)
val resubmit : ctx -> unit

(** [digest ctx msg] punts [msg] to the controller (CPU port), like
    v1model's [digest], whose message the program chooses. *)
val digest : ctx -> Bytes.t -> unit

(** {2 Control-plane API} *)

val register : t -> string -> Register.t
val table : t -> string -> Table.t

(** [set_clone_session t ~session ~port] binds a clone session id to an
    output port (the one-to-one port-based clone table of §8). *)
val set_clone_session : t -> session:int -> port:int -> unit

(** {2 Execution} *)

(** [process t ~ingress_port ?instance bytes] runs one packet through the
    whole pipeline.  Parse errors yield an empty outcome (packet dropped),
    as a real switch would discard a malformed frame. *)
val process : t -> ingress_port:int -> ?instance:instance_kind -> Bytes.t -> outcome
