(** Header schemas and instances — the header model of P4.

    A schema names an ordered list of fields with bit widths.  An instance
    binds every field to a value and carries a validity bit (P4's
    [setValid]/[setInvalid]).  Instances serialize MSB-first into bytes; a
    schema whose total width is not byte-aligned is rejected at definition
    time, mirroring common P4 target constraints. *)

type schema

type inst

(** [define ~name fields] creates a schema.  Raises [Invalid_argument] on
    empty or duplicate field names, widths outside \[1, 62\], or a total
    bit width not divisible by 8. *)
val define : name:string -> (string * int) list -> schema

val schema_name : schema -> string
val byte_size : schema -> int
val fields : schema -> (string * int) list

(** Fresh all-zero valid instance. *)
val make : schema -> inst

val schema_of : inst -> schema
val is_valid : inst -> bool
val set_valid : inst -> bool -> inst

(** [get inst field] / [set inst field v]: field access by name.  [set]
    truncates to the field width.  Raise [Invalid_argument] on unknown
    fields.  Code that accesses a field often resolves an {!index} once
    and uses {!get_at}/{!set_at} instead. *)
val get : inst -> string -> int
val set : inst -> string -> int -> inst

(** [index schema field] is [field]'s position in definition order.
    Raises [Invalid_argument] on unknown fields. *)
val index : schema -> string -> int

(** [get_at inst i] / [set_at inst i v]: field access by {!index}.
    [set_at] truncates to the field width and copies the instance once. *)
val get_at : inst -> int -> int
val set_at : inst -> int -> int -> inst

(** [of_values schema values] is the valid instance whose field [i] (in
    definition order) holds [values.(i)], truncated to its width.  The
    array is masked in place and owned by the instance afterwards.
    Raises [Invalid_argument] unless there is one value per field. *)
val of_values : schema -> int array -> inst

val get_bv : inst -> string -> Bitval.t

(** Serialize into [bytes] at [offset]; returns the next offset.  Invalid
    instances emit nothing.  Schemas whose every field width is a
    multiple of 8 are written a byte at a time, others a bit at a time;
    both give the same MSB-first image. *)
val emit : inst -> Bytes.t -> int -> int

(** [extract schema buf offset] parses one instance; returns it (valid)
    and the next offset.  Raises [Invalid_argument] if the buffer is too
    short. *)
val extract : schema -> Bytes.t -> int -> inst * int

(** [read schema buf offset] is [fst (extract schema buf offset)]. *)
val read : schema -> Bytes.t -> int -> inst

(** {2 Fields in place}

    A {!field} is a field resolved once to its bit offset and width
    inside its schema's wire image, so that per-frame code reads and
    writes a header where it lies in the frame instead of extracting an
    instance. *)

type field

(** [field schema name]: raises [Invalid_argument] on unknown fields. *)
val field : schema -> string -> field

(** [load f buf offset] is the value of [f] in the header image that
    starts at byte [offset] of [buf]; it equals [get_at (read schema buf
    offset) (index schema name)].  [store f buf offset v] writes [v],
    truncated to the field width, and touches no other bit.  Both raise
    [Invalid_argument] if the field lies outside [buf]. *)
val load : field -> Bytes.t -> int -> int

val store : field -> Bytes.t -> int -> int -> unit

val pp : Format.formatter -> inst -> unit
