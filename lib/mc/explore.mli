(** Systematic interleaving exploration (stateless DFS) with sleep-set
    partial-order reduction, fingerprint pruning and delta-debugging
    counterexample minimization.

    The explorer re-executes a {!Scenario.t} once per schedule, steering
    delivery order through the {!Dessim.Sim.chooser} hook: a schedule is
    the vector of picks made at branch points (instants where more than
    one frame delivery is enabled within the reorder window).  After
    every event the shared {!Harness.Invariants} probes run; scenarios
    with declared expectations are additionally checked for convergence
    when a run drains. *)

(** Exploration bounds.  [b_max_depth] bounds branch points per
    schedule (deeper choice points follow the default order);
    [b_por] disables sleep sets when [false] (for measuring the
    reduction factor).  Every execution stops after 50 000 events. *)
type bounds = {
  b_max_depth : int;
  b_max_schedules : int;
  b_por : bool;
}

val default_bounds : bounds

type stats = {
  mutable st_schedules : int;
  mutable st_branch_points : int;
  mutable st_states : int;
  mutable st_pruned_visited : int;
  mutable st_pruned_sleep : int;
  mutable st_max_depth_seen : int;
  mutable st_events : int;
  mutable st_truncated : bool;
}

type counterexample = {
  cex_schedule : int list;
      (** pickable-candidate index chosen at each branch point; trailing
          defaults trimmed after minimization *)
  cex_what : string;
  cex_time : float;
}

type verdict =
  | Verified_exhaustive  (** every schedule within the window explored *)
  | Verified_bounded     (** no violation, but a depth/schedule/event cap hit *)
  | Found of counterexample

type result = {
  r_scenario : string;
  r_window_ms : float;
  r_verdict : verdict;
  r_stats : stats;
}

(** [check ?bounds ?cfg ?unsafe sc] runs the DFS, which stops at the
    first violation or when the schedule space within the bounds is
    exhausted, then minimizes any counterexample.  With [unsafe]
    (default [false]) every world it builds drops the scenario's §4b
    guard ({!Scenario.build}).  [check] builds one world per schedule, so
    [cfg.trace_sink] must be [None]: a sink belongs to one simulation
    (trace a schedule with {!replay}).  This is the CLI and test entry point.  [cfg]
    (default {!Scenario.default_cfg}) supplies the build seed and the
    reorder-window override ([cfg.reorder_window_ms], the CLI's
    [--window]). *)
val check :
  ?bounds:bounds -> ?cfg:Harness.Run_config.t -> ?unsafe:bool -> Scenario.t -> result

(** [replay sc ~window schedule sink] re-executes one schedule in a world
    whose simulation adopts [sink]; every branch decision emits an
    ["mc.choice"] instant (category ["mc"]) and a violation, if hit, an
    ["mc.violation"] instant — on top of the regular cross-layer
    instrumentation.  [unsafe] is as for {!check}.  Export the sink with
    {!Obs.Trace.to_chrome} for Perfetto. *)
val replay :
  ?cfg:Harness.Run_config.t ->
  ?unsafe:bool ->
  Scenario.t ->
  window:float ->
  int list ->
  Obs.Trace.sink ->
  unit

(** Human-readable one-line summary of a result. *)
val verdict_line : result -> string
