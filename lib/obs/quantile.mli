(** The one quantile implementation.

    Percentile estimation used to live twice — exact order statistics in
    [Harness.Stats] and (implicitly) the log2-histogram buckets in
    {!Metrics} — with no shared p-range validation.  Both now route
    through this module, so a caller passing p = 101 gets the same
    [Invalid_argument] either way.

    Conventions shared by every entry point: [p] is a percentile in
    [0, 100]; out-of-range or non-finite [p] raises [Invalid_argument]
    prefixed with the caller-supplied [who]; empty samples return
    [None]. *)

val of_list_opt : ?who:string -> float -> float list -> float option
(** Sorts a copy, then interpolates linearly on rank [p/100 * (n-1)] —
    the "type 7" estimator (R's default). *)

val of_buckets_opt :
  ?who:string -> float -> count:int -> buckets:int array -> float option
(** Estimate over power-of-two histogram buckets: bucket 0 covers
    [0, 1), bucket [i >= 1] covers [2^(i-1), 2^i).  The target rank is
    located by a cumulative walk and interpolated linearly inside its
    bucket, so the error is bounded by the bucket width.  [count] is the
    total sample count (buckets may sum to less if the caller clamps);
    [count <= 0] returns [None]. *)
