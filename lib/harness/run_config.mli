(** The single configuration entry point for harness runs.

    Every runner — the figure experiments, the chaos harness, the traced
    scenario runners, the model-checking scenarios and the scale engine —
    accepts one [Run_config.t] instead of its own scattering of [?seed] /
    [?runs] / [?iterations] / [~congestion] optional arguments.  The CLI
    ([bin/p4update_cli.ml]) builds exactly one value per invocation from
    the shared command-line flags and passes it to whichever subcommand
    runs.  Runners read the fields they care about and ignore the rest. *)

(** Stochastic-fault schedule knobs of the chaos harness ({!Chaos.run}),
    whose workload is 3 flows under the {!default_watchdog_ms} switch
    watchdog, probed every 500 ms. *)
type fault_plan = {
  fp_window_ms : float;          (** faults and failures stop after this *)
  fp_horizon_ms : float;         (** simulation bound for convergence *)
  fp_data_prob : float;          (** per-packet fault probability, data plane *)
  fp_control_prob : float;       (** per-message fault probability, control *)
  fp_max_element_failures : int; (** 0–n scheduled link/node failures *)
  fp_recovery : bool;            (** arm the §11 recovery loop *)
}

(** The single source of the switch-watchdog default (ms); chaos and soak
    configurations derive from it. *)
val default_watchdog_ms : float

(** 3 s fault window, 120 s horizon, 8% fault probability on both
    planes, up to 2 element failures, §11 recovery on. *)
val default_faults : fault_plan

type t = {
  seed : int;                        (** base seed; see {!run_seed} *)
  runs : int;                        (** sample count of multi-run experiments *)
  iterations : int;                  (** inner-loop size (fig8 preparations) *)
  congestion : bool;                 (** congestion-aware variant (fig8) *)
  trace_sink : Obs.Trace.sink option;(** adopted by the simulation of the
                                         one traced run ([Traced.run],
                                         [Run.run], the degraded
                                         [Chaos.run], an mc world) *)
  fault_plan : fault_plan option;    (** inject faults when present (chaos) *)
  reorder_window_ms : float option;  (** mc chooser window override *)
  recorder : bool;                   (** always-on flight recorder (default on) *)
  incident_dir : string option;      (** where trigger dumps land; None = no files *)
  tick_ms : float option;            (** SLO time-series tick override *)
  series_out : string option;        (** write windows as JSONL here *)
  live_top : bool;                   (** render the top dashboard per window *)
}

(** seed 1, 30 runs, 1000 iterations, no congestion, no sink, no faults,
    per-scenario reorder window; flight recorder on, no incident dir, no
    series export, no live dashboard. *)
val default : t

val make :
  ?seed:int ->
  ?runs:int ->
  ?iterations:int ->
  ?congestion:bool ->
  ?trace_sink:Obs.Trace.sink ->
  ?fault_plan:fault_plan ->
  ?reorder_window_ms:float ->
  ?recorder:bool ->
  ?incident_dir:string ->
  ?tick_ms:float ->
  ?series_out:string ->
  ?live_top:bool ->
  unit ->
  t

(** [run_seed cfg i] is the seed of the [i]th run ([i] from 0) of a
    multi-run experiment: [cfg.seed + i], so run 0 uses the configured
    seed itself. *)
val run_seed : t -> int -> int
