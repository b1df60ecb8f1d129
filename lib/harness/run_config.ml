(* The single run-configuration record shared by every harness entry
   point (experiments, chaos, traced runs, the model-checking scenarios
   and the scale engine).  Before this existed each runner grew its own
   scattering of [?seed] / [?runs] / [?iterations] / [~congestion]
   optional arguments; a [Run_config.t] carries all of them plus the
   cross-cutting knobs (trace sink, fault plan, reorder window) so the
   CLI builds exactly one value per invocation and passes it down.

   This module is deliberately dependency-free within the harness, so
   [Chaos] (which needs [World] and [Invariants]) reads its fault plan
   from here without a cycle. *)

(* The chaos harness's knobs. *)
type fault_plan = {
  fp_window_ms : float;
  fp_horizon_ms : float;
  fp_data_prob : float;
  fp_control_prob : float;
  fp_max_element_failures : int;
  fp_recovery : bool;
}

(* The one switch-watchdog default: every harness (chaos, soak) derives
   from this constant instead of repeating the literal. *)
let default_watchdog_ms = 400.0

let default_faults =
  {
    fp_window_ms = 3000.0;
    fp_horizon_ms = 120_000.0;
    fp_data_prob = 0.08;
    fp_control_prob = 0.08;
    fp_max_element_failures = 2;
    fp_recovery = true;
  }

type t = {
  seed : int;
  runs : int;
  iterations : int;
  congestion : bool;
  trace_sink : Obs.Trace.sink option;
  fault_plan : fault_plan option;
  reorder_window_ms : float option;
  recorder : bool;
  incident_dir : string option;
  tick_ms : float option;
  series_out : string option;
  live_top : bool;
  intent_churn : bool;
}

let default =
  {
    seed = 1;
    runs = 30;
    iterations = 1000;
    congestion = false;
    trace_sink = None;
    fault_plan = None;
    reorder_window_ms = None;
    recorder = true;
    incident_dir = None;
    tick_ms = None;
    series_out = None;
    live_top = false;
    intent_churn = false;
  }

let make ?(seed = default.seed) ?(runs = default.runs)
    ?(iterations = default.iterations) ?(congestion = default.congestion)
    ?trace_sink ?fault_plan ?reorder_window_ms ?(recorder = default.recorder)
    ?incident_dir ?tick_ms ?series_out ?(live_top = default.live_top)
    ?(intent_churn = default.intent_churn) () =
  {
    seed;
    runs;
    iterations;
    congestion;
    trace_sink;
    fault_plan;
    reorder_window_ms;
    recorder;
    incident_dir;
    tick_ms;
    series_out;
    live_top;
    intent_churn;
  }

(* The seed of the [i]th run of a multi-run experiment: run 0 uses the
   configured seed itself, so single-run and multi-run entry points agree
   on what "the" seed means. *)
let run_seed cfg i = cfg.seed + i
