(** Named metrics registry: counters, gauges, and log-scale histograms.

    A registry is a flat name -> instrument table.  Lookup by name is
    idempotent ([counter r "x"] twice returns the same instrument), and
    hot paths are expected to hoist the instrument out of the loop —
    incrementing a counter handle is a single field mutation.

    Histograms use power-of-two buckets and additionally retain raw
    samples (capped at 100k) so exact percentiles can be computed on
    snapshot while long chaos runs stay bounded. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (** bucket [i >= 1] counts samples in [2^(i-1), 2^i); bucket 0 is [0, 1) *)
  mutable h_samples : float list;  (** newest first, capped *)
  mutable h_retained : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t

val create : unit -> t

(** {2 Lookup-or-create} — raise [Invalid_argument] if the name is
    already bound to a different instrument kind. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {2 Instrument operations} *)

val incr : ?by:int -> counter -> unit
val count : counter -> int
val set : gauge -> float -> unit
val value : gauge -> float
val observe : histogram -> float -> unit

val samples : histogram -> float list
(** Retained raw samples in observation order (oldest first). *)

val hcount : histogram -> int

val percentile_opt : histogram -> float -> float option
(** Estimated percentile from the log2 buckets (linear interpolation
    inside the target bucket), via {!Quantile.of_buckets_opt}.  [None]
    on an empty histogram; out-of-range p raises [Invalid_argument]. *)

val percentile : histogram -> float -> float
(** Like {!percentile_opt} but raises [Invalid_argument] when empty. *)

val bucket_floor : int -> float
(** Lower edge of bucket [i]: 0 for bucket 0, else [2^(i-1)]. *)

(** {2 Registry-level access} *)

val get : t -> string -> instrument option

val get_count : t -> string -> int
(** Counter value by name; 0 if absent or not a counter. *)

val reset : t -> unit
(** Zero every instrument in place (handles stay valid). *)
