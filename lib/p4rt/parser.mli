(** P4-style parse graph: states extract a header and select the next
    state on a field of the header just extracted.

    A parser is a list of named states.  Parsing starts at ["start"] and
    ends when a state selects [Accept].  The bytes remaining after the
    final extraction become the payload ([Bytes.empty] when the headers
    consume the whole frame).

    {!create} compiles the graph once: states become array indices and
    select fields become field indices of the state's schema, and also
    bit offsets and widths inside its wire image.  {!run} materializes
    the headers and selects on their values; {!walk} reads the select
    fields where they lie in the frame and returns only where each
    header sits.  The two agree on every frame, and {!run} is the
    specification that {!walk} is tested against. *)

type next =
  | Accept
  | Goto of string
  | Select of string * (int * string) list * next
      (** [Select (field, cases, default)]: branch on the value of [field]
          of the header extracted in this state. *)

type state = {
  state_name : string;
  extracts : Header.schema option;  (** [None]: extract nothing *)
  transition : next;
}

type t

(** Raises [Invalid_argument] when no ["start"] state exists, a
    transition targets an unknown state, or a [Select] names a field its
    state's schema lacks or sits in a state that extracts nothing.  When
    two states share a name, the first one is the one transitions reach. *)
val create : state list -> t

exception Parse_error of string

(** [run parser bytes] parses a packet.  Raises [Parse_error] on truncated
    input or a select value with no matching case and a [Goto] default
    that loops forever (cycles are cut after 64 state visits). *)
val run : t -> Bytes.t -> Packet.t

(** {2 The compiled walk} *)

(** The accepted path through a frame: the extracted headers' schemas in
    stack order.  They sit back to back from offset 0, and the payload
    follows the last. *)
type path

(** [walk parser bytes] decides every transition by reading the select
    field at its offset in [bytes], without building a header.  It
    raises [Parse_error] exactly when {!run} does, with the same
    message, and otherwise returns the path of the headers {!run}
    extracts. *)
val walk : t -> Bytes.t -> path

(** Byte offset of the first header of [schema] on the path (schemas
    compare by identity, as in {!Packet.header}), or [-1]. *)
val offset : path -> Header.schema -> int

(** [packet_of_path path bytes] materializes the headers at their
    offsets and copies the payload out: for [path = walk parser bytes]
    it equals [run parser bytes]. *)
val packet_of_path : path -> Bytes.t -> Packet.t

(** The path the deparser lays [pkt]'s valid headers out on: the one
    [walk] would return on [Packet.serialize pkt] if the parse graph
    extracted exactly those headers. *)
val path_of_packet : Packet.t -> path
