(** Shared observability wiring for the harness entry points.

    Every long-horizon harness (scale, soak, chaos, traffic benches)
    wants the same two rails: the always-on flight recorder installed
    around the run, and — when a tick is configured — a rolling SLO
    time-series sampled off [Dessim.Sim]'s observability tick.  This
    module owns the install/uninstall discipline so the harnesses stay
    composable: a harness only installs a recorder if the caller has
    not already done so (a benchmark or test that installed one around
    the run reads it afterwards, so it must survive), and always
    uninstalls exactly what it installed. *)

val with_recorder :
  Run_config.t -> (Obs.Flight_recorder.t option -> 'a) -> 'a
(** Run the body with a flight recorder installed per the config: a
    fresh one when [recorder] is set and none is active, reusing the
    ambient one otherwise.  The body receives the recorder the run
    observes ([None] when recording is off); the installed-here
    recorder is uninstalled on exit, exceptions included. *)

val attach_series :
  Run_config.t ->
  Dessim.Sim.t ->
  default_tick_ms:float ->
  title:string ->
  register:(Obs.Timeseries.t -> unit) ->
  Obs.Timeseries.t
(** Attach a time-series to the simulator, sampling every tick
    ([tick_ms] in the config overrides [default_tick_ms]).  [register]
    adds the harness's probes before the first window closes.  When
    [live_top] is set each closed window repaints a [top]-style
    dashboard (ANSI clear only when stdout is a terminal). *)

val finish_series : Run_config.t -> Dessim.Sim.t -> Obs.Timeseries.t -> unit
(** Detach the tick and flush the series to [series_out] as JSONL,
    when configured. *)
