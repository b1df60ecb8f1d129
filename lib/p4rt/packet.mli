(** Packets: an ordered stack of header instances plus an opaque payload.

    The deparser serializes the headers in stack order followed by the
    payload; a parse specification (ordered schema list with a select
    function) rebuilds the stack from bytes. *)

type t = {
  headers : Header.inst list;
  payload : Bytes.t;
}

val make : ?payload:Bytes.t -> Header.inst list -> t

(** Headers are looked up by schema identity (the {!Header.schema} value
    itself, not its name).

    [header pkt schema] is the first instance of [schema]. *)
val header : t -> Header.schema -> Header.inst option

(** Deparser: the headers in order, then the payload. *)
val serialize : t -> Bytes.t
