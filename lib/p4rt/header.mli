(** Header schemas and instances — the header model of P4.

    A schema names an ordered list of fields with bit widths.  An instance
    binds every field to a value.  Instances serialize MSB-first into
    bytes; a schema whose total width is not byte-aligned is rejected at
    definition time, mirroring common P4 target constraints. *)

type schema

type inst

(** [define ~name fields] creates a schema.  Raises [Invalid_argument] on
    empty or duplicate field names, widths outside \[1, 62\], or a total
    bit width not divisible by 8. *)
val define : name:string -> (string * int) list -> schema

val schema_name : schema -> string
val byte_size : schema -> int
val fields : schema -> (string * int) list

(** Fresh all-zero instance. *)
val make : schema -> inst

val schema_of : inst -> schema

(** [get inst field] / [set inst field v]: field access by name.  [set]
    truncates to the field width.  Raise [Invalid_argument] on unknown
    fields.  Code that accesses a field often resolves an {!index} once
    and uses {!get_at} instead. *)
val get : inst -> string -> int
val set : inst -> string -> int -> inst

(** [index schema field] is [field]'s position in definition order.
    Raises [Invalid_argument] on unknown fields. *)
val index : schema -> string -> int

(** [get_at inst i]: field access by {!index}. *)
val get_at : inst -> int -> int

(** [of_values schema values] is the instance whose field [i] (in
    definition order) holds [values.(i)], truncated to its width.  The
    array is masked in place and owned by the instance afterwards.
    Raises [Invalid_argument] unless there is one value per field. *)
val of_values : schema -> int array -> inst

(** Serialize into [bytes] at [offset]; returns the next offset.
    Schemas whose every field width is a multiple of 8 are written a byte
    at a time, others a bit at a time; both give the same MSB-first
    image. *)
val emit : inst -> Bytes.t -> int -> int

(** [extract schema buf offset] parses one instance; returns it and
    the next offset.  Raises [Invalid_argument] if the buffer is too
    short. *)
val extract : schema -> Bytes.t -> int -> inst * int

(** [read schema buf offset] is [fst (extract schema buf offset)]. *)
val read : schema -> Bytes.t -> int -> inst
