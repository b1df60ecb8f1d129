let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. float_of_int (List.length xs - 1)
    in
    sqrt var

(* Order statistics on an empty sample have no value to return; a silent
   [nan] used to leak into reports and render as "nan" columns.  They now
   raise with a clear message, and [*_opt] variants are provided for
   callers that want to handle emptiness themselves. *)

(* The order-statistics math (and the p-range validation) is shared with
   Obs.Timeseries through Obs.Quantile — one implementation. *)
let percentile_opt p xs = Obs.Quantile.of_list_opt ~who:"Stats.percentile" p xs

let percentile p xs =
  match percentile_opt p xs with
  | Some v -> v
  | None -> invalid_arg "Stats.percentile: empty sample"

let median xs = percentile 50.0 xs

let minimum_opt = function
  | [] -> None
  | xs -> Some (List.fold_left Float.min infinity xs)

let maximum_opt = function
  | [] -> None
  | xs -> Some (List.fold_left Float.max neg_infinity xs)

let minimum xs =
  match minimum_opt xs with
  | Some v -> v
  | None -> invalid_arg "Stats.minimum: empty sample"

let maximum xs =
  match maximum_opt xs with
  | Some v -> v
  | None -> invalid_arg "Stats.maximum: empty sample"

let cdf xs =
  let sorted = List.sort compare xs in
  let n = float_of_int (List.length sorted) in
  List.mapi (fun i x -> (x, float_of_int (i + 1) /. n)) sorted

let summary name xs =
  match xs with
  | [] -> Printf.sprintf "%s: n=0 (no samples)" name
  | xs ->
    Printf.sprintf "%s: n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p90=%.2f max=%.2f" name
      (List.length xs) (mean xs) (stddev xs) (minimum xs) (median xs) (percentile 90.0 xs)
      (maximum xs)

let ascii_cdf ?(width = 60) ~series () =
  match List.concat_map snd series with
  | [] -> "(no data)\n"
  | all ->
    let lo = minimum all and hi = maximum all in
    let span = if hi > lo then hi -. lo else 1.0 in
    let buf = Buffer.create 1024 in
    List.iter
      (fun (label, xs) ->
        Buffer.add_string buf (Printf.sprintf "%-14s |" label);
        let points = cdf xs in
        let value_at_column col =
          let x = lo +. (span *. float_of_int col /. float_of_int (width - 1)) in
          let rec fraction acc = function
            | [] -> acc
            | (v, f) :: rest -> if v <= x then fraction f rest else acc
          in
          fraction 0.0 points
        in
        for col = 0 to width - 1 do
          let f = value_at_column col in
          let ch =
            if f >= 0.999 then '#'
            else if f >= 0.75 then '%'
            else if f >= 0.5 then '+'
            else if f >= 0.25 then '-'
            else if f > 0.0 then '.'
            else ' '
          in
          Buffer.add_char buf ch
        done;
        Buffer.add_string buf "|\n")
      series;
    Buffer.add_string buf
      (Printf.sprintf "%-14s  %-10.1f%*s\n" "x [ms]:" lo (width - 10) (Printf.sprintf "%.1f" hi));
    Buffer.contents buf
