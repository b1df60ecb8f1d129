(** Benchmark metric rows and the perf regression gate.

    Every bench subsuite emits flat [{"name","unit","value"}] rows
    (BENCH_scale.json, BENCH_traffic.json, BENCH_soak.json,
    BENCH_obs.json, BENCH_intent.json and the optional [--json] file).
    This module is the one reader/writer for that format, plus the
    {!check} comparator that turns the files from write-only artifacts
    into an enforced perf contract.

    Tolerance model: every row has a direction and a relative tolerance
    band, defaulting by unit (a wall-clock throughput is noisy; a
    simulated-time count is deterministic) and overridable per row in
    the baseline file with explicit ["tol"] / ["dir"] fields.  Committed
    baselines written by {!write_baseline} pin deterministic metrics
    tightly and wall-clock metrics loosely, so the gate survives
    machine-to-machine variance in CI while still failing a same-machine
    20% throughput regression. *)

type dir =
  | Higher  (** bigger is better: fail when current < baseline - band *)
  | Lower   (** smaller is better: fail when current > baseline + band *)
  | Both    (** must stay put: fail on drift either way *)

type row = {
  r_name : string;
  r_unit : string;
  r_value : float;
  r_tol : float option;  (** relative band override (baseline files only) *)
  r_dir : dir option;
}

val row : string -> string -> float -> row
(** [row name unit value] with no overrides (defaults apply). *)

val write : ?baseline:bool -> path:string -> row list -> unit
(** Write rows as a JSON array.  With [~baseline:true], rows in noisy
    wall-clock units get explicit loose ["tol"] fields stamped in. *)

val write_baseline : path:string -> row list -> unit
(** [write ~baseline:true]. *)

val read : path:string -> row list
(** Parse a rows file; raises [Invalid_argument] on malformed JSON.
    Rows missing name/unit/value are skipped. *)

val of_json : Json.t -> row list
(** The parsing core of {!read}; expects a JSON array. *)

(** {2 The regression gate} *)

type verdict = {
  vd_name : string;
  vd_ok : bool;
  vd_line : string;  (** human-readable judgement *)
}

val check : baseline:row list -> current:row list -> bool * verdict list
(** Compare current rows against a pinned baseline.  Every baseline row
    must be present in the current run (a silently vanished metric is a
    failure, not a pass); rows only the current run has are ignored —
    adding metrics must not break the gate.  Per-row band =
    tolerance x max(|baseline|, unit floor), judged in the row's
    direction.  Current values are judged at the precision {!write}
    stores, so checking live rows and checking their written file give
    the same verdicts. *)

val report_lines : baseline_path:string -> verdict list -> string list
(** Summary line followed by one indented judgement line per verdict. *)
