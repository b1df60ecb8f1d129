(** Minimal JSON value type with a deterministic compact printer and a
    recursive-descent parser.  Dependency-free on purpose: the trace and
    metrics exporters must produce byte-identical output for same-seed
    runs, so float formatting is controlled here rather than delegated
    to an external printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace) rendering.  Deterministic: floats print with
    fixed six-digit precision, trailing zeros trimmed ([3.0], not
    [3.000000]); NaN renders as [null]; object keys keep their given
    order. *)

exception Parse_error of string
(** Raised by {!of_string} with a message and byte offset. *)

val of_string : string -> t
(** Parse a complete JSON document.  Rejects trailing garbage and
    nesting deeper than 512 levels (so adversarial input raises
    {!Parse_error} instead of overflowing the stack).  Numbers without
    [.]/[e] parse as [Int], others as [Float]. *)

(** {2 Accessors} — total versions used by trace validation. *)

val member : string -> t -> t option
(** [member k j] is the value bound to [k] if [j] is an [Obj]. *)

val to_list : t -> t list option
val to_str : t -> string option

val to_number : t -> float option
(** [Int] and [Float] both read as a float. *)
