(** BMv2-style pipeline: parser → ingress control → egress control →
    deparser, with the v1model primitives P4Update relies on: register
    access, table application, [clone], [resubmit] and controller digests.

    A program is a pair of control functions over a per-packet context.
    Registers and tables are created by the program author and registered
    here so the control plane can reach them by name. *)

type instance_kind = Normal | Cloned | Resubmitted

(** Per-packet context: the packet, its ingress port and instance kind,
    and the forwarding decisions made so far.  It is fresh for each packet
    (§2.1); registers persist in the enclosing pipeline. *)
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
  resubmitted : Packet.t option;
  to_controller : Packet.t list;
}

val create :
  name:string ->
  registers:Register.t list ->
  tables:Table.t list ->
  program ->
  t

val name : t -> string

(** {2 Context operations (for use inside control functions)} *)

val packet : ctx -> Packet.t
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

(** Punt a copy of the current packet to the controller (CPU port). *)
val digest : ctx -> unit

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
