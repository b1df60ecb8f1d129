(** Packets: an ordered stack of header instances plus an opaque payload.

    The deparser serializes valid headers in stack order followed by the
    payload; a parse specification (ordered schema list with a select
    function) rebuilds the stack from bytes. *)

type t = {
  headers : Header.inst list;
  payload : Bytes.t;
}

val make : ?payload:Bytes.t -> Header.inst list -> t

(** Headers are looked up by schema identity (the {!Header.schema} value
    itself, not its name).

    [header pkt schema] is the first valid instance of [schema]. *)
val header : t -> Header.schema -> Header.inst option

(** [with_header pkt inst] replaces the first instance of the same schema,
    or appends [inst] to the stack if absent. *)
val with_header : t -> Header.inst -> t

(** Deparser: valid headers in order, then the payload. *)
val serialize : t -> Bytes.t

(** Total wire size in bytes. *)
val wire_size : t -> int

val pp : Format.formatter -> t -> unit
