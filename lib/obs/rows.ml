(* Benchmark metric rows and the perf regression gate.

   Every bench subsuite emits flat {"name","unit","value"} rows
   (BENCH_scale.json, BENCH_traffic.json, BENCH_soak.json, BENCH_obs.json
   and the optional --json file).  This module is the one reader/writer
   for that format — the per-harness hand-rolled emitters in bench/main.ml
   route through it — plus the [check] comparator that turns the files
   from write-only artifacts into an enforced perf contract.

   Tolerance model.  Every row has a direction and a relative tolerance
   band, defaulting by unit (a wall-clock throughput is noisy; a
   simulated-time count is deterministic) and overridable per row in the
   baseline file with explicit "tol" / "dir" fields.  Committed baselines
   written by {!write_baseline} pin deterministic metrics tightly and
   wall-clock metrics loosely, so the gate is robust to machine-to-machine
   variance in CI while a unit-tolerance check still fails a 20%
   throughput regression measured on the same machine. *)

type dir =
  | Higher  (* bigger is better: fail when current < baseline - band *)
  | Lower   (* smaller is better: fail when current > baseline + band *)
  | Both    (* must stay put: fail on drift either way *)

type row = {
  r_name : string;
  r_unit : string;
  r_value : float;
  r_tol : float option;  (* relative band override (baseline files only) *)
  r_dir : dir option;
}

let row name unit_ value =
  { r_name = name; r_unit = unit_; r_value = value; r_tol = None; r_dir = None }

let dir_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | "both" -> Some Both
  | _ -> None

let dir_to_string = function Higher -> "higher" | Lower -> "lower" | Both -> "both"

(* Per-unit defaults.  Wall-clock-derived rates are noisy even on one
   machine (hence 15%, tight enough that a 20% regression fails);
   simulated-time figures and counts are seed-deterministic, so the bands
   are tight to zero.  Unknown units get a conservative middle ground. *)
let default_dir unit_ =
  match unit_ with
  | "events/s" | "updates/s" | "pkts/s" | "ops/s" | "x" | "ratio" | "bool" -> Higher
  | "ms" | "ns/run" | "count" | "s" | "%" -> Lower
  | "updates" | "pkts" | "packets" | "events" | "flows" -> Both
  | _ -> Both

let default_tol unit_ =
  match unit_ with
  | "events/s" | "updates/s" | "pkts/s" | "ops/s" -> 0.15
  | "x" -> 0.5
  | "ns/run" -> 0.5
  | "ms" -> 0.25
  | "count" | "bool" -> 0.0
  | "ratio" -> 0.05
  | "s" -> 1.0
  | "%" -> 1.0
  | "updates" | "pkts" | "packets" | "events" | "flows" -> 0.02
  | _ -> 0.25

(* Absolute floor for the band so near-zero baselines are not
   over-pinned: a 1.2% overhead baseline tolerates a few points of noise,
   a 0.3 ms p50 tolerates a fraction of a millisecond.  Counts keep a
   zero floor — "violations = 0" must stay exactly zero. *)
let abs_floor unit_ =
  match unit_ with
  | "%" -> 5.0
  | "ms" -> 0.5
  | "count" | "bool" -> 0.0
  | _ -> 1e-9

(* The committed-baseline band: explicit per-row tolerances wide enough
   to absorb cross-machine wall-clock variance (CI runners vs dev boxes),
   written by [write_baseline].  Deterministic units return [None] and
   keep their tight defaults. *)
let baseline_tol unit_ =
  match unit_ with
  | "events/s" | "updates/s" | "pkts/s" | "ops/s" -> Some 0.8
  | "x" -> Some 0.9
  | "ns/run" -> Some 3.0
  | "s" -> Some 3.0
  | _ -> None

(* --- JSON read/write ------------------------------------------------ *)

let to_json ?(baseline = false) rows =
  Json.List
    (List.map
       (fun r ->
         let tol =
           match r.r_tol with
           | Some t -> Some t
           | None -> if baseline then baseline_tol r.r_unit else None
         in
         Json.Obj
           ([
              ("name", Json.Str r.r_name);
              ("unit", Json.Str r.r_unit);
              ("value", Json.Float r.r_value);
            ]
           @ (match tol with Some t -> [ ("tol", Json.Float t) ] | None -> [])
           @
           match r.r_dir with
           | Some d -> [ ("dir", Json.Str (dir_to_string d)) ]
           | None -> []))
       rows)

let write ?baseline ~path rows =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json ?baseline rows));
  output_char oc '\n';
  close_out oc

let write_baseline ~path rows = write ~baseline:true ~path rows

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let of_json j =
  match j with
  | Json.List items ->
    List.filter_map
      (fun item ->
        match (Json.member "name" item, Json.member "unit" item, number (Json.member "value" item)) with
        | Some (Json.Str name), Some (Json.Str unit_), Some value ->
          Some
            {
              r_name = name;
              r_unit = unit_;
              r_value = value;
              r_tol = number (Json.member "tol" item);
              r_dir =
                (match Json.member "dir" item with
                 | Some (Json.Str d) -> dir_of_string d
                 | _ -> None);
            }
        | _ -> None)
      items
  | _ -> invalid_arg "Rows.of_json: expected a JSON array of rows"

let read ~path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | j -> of_json j
  | exception Json.Parse_error e ->
    invalid_arg (Printf.sprintf "Rows.read %s: %s" path e)

(* --- the regression gate -------------------------------------------- *)

type verdict = {
  vd_name : string;
  vd_ok : bool;
  vd_line : string;  (* human-readable judgement *)
}

let band baseline =
  let tol = match baseline.r_tol with Some t -> t | None -> default_tol baseline.r_unit in
  tol *. Float.max (Float.abs baseline.r_value) (abs_floor baseline.r_unit)

let judge ~baseline ~current =
  let d =
    match baseline.r_dir with Some d -> d | None -> default_dir baseline.r_unit
  in
  let b = band baseline in
  let delta = current.r_value -. baseline.r_value in
  let ok =
    match d with
    | Higher -> delta >= -.b
    | Lower -> delta <= b
    | Both -> Float.abs delta <= b
  in
  let line =
    Printf.sprintf "%-44s %14.2f vs %14.2f %-9s (%s, band %.2f)%s" baseline.r_name
      current.r_value baseline.r_value baseline.r_unit (dir_to_string d) b
      (if ok then "" else "  <-- REGRESSION")
  in
  { vd_name = baseline.r_name; vd_ok = ok; vd_line = line }

(* The value a rows file holds for [v]: [write] keeps six decimals, so a
   baseline read back from disk says 8.611111 where the run computed
   8.6111111...  Judging live rows at that precision makes the
   in-process gate agree with the file-to-file one. *)
let stored v = if Float.is_nan v then v else float_of_string (Json.float_repr v)

(* Compare current rows against a pinned baseline.  Every baseline row
   must be present in the current run (a silently vanished metric is a
   failure, not a pass); rows only the current run has are ignored —
   adding metrics must not break the gate. *)
let check ~baseline ~current =
  let verdicts =
    List.map
      (fun b ->
        match List.find_opt (fun c -> c.r_name = b.r_name) current with
        | Some c -> judge ~baseline:b ~current:{ c with r_value = stored c.r_value }
        | None ->
          {
            vd_name = b.r_name;
            vd_ok = false;
            vd_line =
              Printf.sprintf "%-44s MISSING from current rows  <-- REGRESSION"
                b.r_name;
          })
      baseline
  in
  let ok = List.for_all (fun v -> v.vd_ok) verdicts in
  (ok, verdicts)

let report_lines ~baseline_path verdicts =
  let failed = List.filter (fun v -> not v.vd_ok) verdicts in
  Printf.sprintf "regression gate vs %s: %d metrics, %d regressions -> %s"
    baseline_path (List.length verdicts) (List.length failed)
    (if failed = [] then "OK" else "FAIL")
  :: List.map (fun v -> "  " ^ v.vd_line) verdicts
