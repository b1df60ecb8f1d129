(* The one quantile implementation: exact order statistics over a sample
   list.  [Harness.Stats.percentile_opt] and [Timeseries] both delegate to
   {!of_list_opt}, so a caller passing p = 101 gets the same
   [Invalid_argument] either way.

   [p] is a percentile in [0, 100]; out-of-range or non-finite raises
   [Invalid_argument] with the caller-supplied [who] prefix.  Empty samples
   return [None]; [*_opt]-free wrappers are the callers' business. *)

(* Linear interpolation on rank p/100 * (n-1) over the sorted samples —
   the "type 7" estimator (R's default), matching what Harness.Stats
   always computed. *)
let of_list_opt ?(who = "Quantile.of_list_opt") p xs =
  if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
    invalid_arg (who ^ ": p outside [0, 100]");
  match xs with
  | [] -> None
  | xs ->
    let arr = Array.of_list (List.sort compare xs) in
    let rank = p /. 100.0 *. float_of_int (Array.length arr - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    if lo = hi then Some arr.(lo)
    else
      let frac = rank -. float_of_int lo in
      Some (arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo))))
