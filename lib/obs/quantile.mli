(** The one quantile implementation: exact order statistics over a
    sample list, behind [Harness.Stats] and {!Timeseries}.

    [p] is a percentile in [0, 100]; out-of-range or non-finite [p]
    raises [Invalid_argument] prefixed with the caller-supplied [who];
    empty samples return [None]. *)

val of_list_opt : ?who:string -> float -> float list -> float option
(** Sorts a copy, then interpolates linearly on rank [p/100 * (n-1)] —
    the "type 7" estimator (R's default). *)
