(** P4-style parse graph: states extract a header and select the next
    state on a field of the header just extracted.

    A parser is a list of named states.  Parsing starts at ["start"] and
    ends when a state selects [Accept].  The bytes remaining after the
    final extraction become the payload ([Bytes.empty] when the headers
    consume the whole frame).

    {!create} compiles the graph once: states become array indices and
    select fields become field indices of the state's schema.  {!run}
    materializes the headers and selects on their values. *)

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
