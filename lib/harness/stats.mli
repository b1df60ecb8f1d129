(** Small statistics toolkit for the evaluation harness. *)

val mean : float list -> float
val stddev : float list -> float

(** [percentile p xs] with [p] in \[0, 100\] (linear interpolation).
    Raises [Invalid_argument] on an empty sample; use {!percentile_opt}
    to handle emptiness without an exception. *)
val percentile : float -> float list -> float

val percentile_opt : float -> float list -> float option

val median : float list -> float

(** Order statistics; raise [Invalid_argument] on an empty sample. *)
val minimum : float list -> float

val maximum : float list -> float
val minimum_opt : float list -> float option
val maximum_opt : float list -> float option

(** [cdf xs] is the empirical CDF as sorted [(value, fraction)] points. *)
val cdf : float list -> (float * float) list

(** [summary name xs] renders a one-line summary ("name: mean=… p50=…"). *)
val summary : string -> float list -> string

(** [ascii_cdf ~width ~series] renders a terminal plot of several CDFs on
    a common axis; [series] pairs a label with its samples. *)
val ascii_cdf : ?width:int -> series:(string * float list) list -> unit -> string
