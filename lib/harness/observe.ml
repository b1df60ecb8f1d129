(* Shared observability wiring for the harness entry points.

   Every long-horizon harness (scale, soak, chaos, traffic benches) wants
   the same two rails: the always-on flight recorder installed around the
   run, and — when a tick is configured — a rolling SLO time-series
   sampled off {!Dessim.Sim}'s observability tick.  This module owns the
   install/uninstall discipline so the harnesses stay composable: a
   harness only installs a recorder if the caller has not already done so
   (a benchmark or test that installed one around the run reads it
   afterwards, so it must survive), and always uninstalls exactly what it
   installed. *)

module Sim = Dessim.Sim

(* Run [f ()] with a flight recorder installed per [cfg]: a fresh one
   when [cfg.recorder] is set and none is active, reusing the ambient one
   otherwise.  Returns [f]'s result paired with the recorder the run
   observed (None when recording is off). *)
let with_recorder (cfg : Run_config.t) f =
  let mine =
    if cfg.Run_config.recorder && not (Obs.Flight_recorder.installed ()) then begin
      let r =
        Obs.Flight_recorder.create ?incident_dir:cfg.Run_config.incident_dir ()
      in
      Obs.Flight_recorder.install r;
      true
    end
    else false
  in
  Fun.protect
    ~finally:(fun () -> if mine then Obs.Flight_recorder.uninstall ())
    (fun () -> f (Obs.Flight_recorder.get ()))

(* ANSI home+clear, only when stdout is a terminal — a redirected soak
   log gets plain appended frames. *)
let clear_screen () =
  if Out_channel.isatty stdout then print_string "\027[H\027[2J"

(* Attach a time-series to [sim], sampling every [tick] simulated ms
   ([cfg.tick_ms] overrides the harness default).  [register] adds the
   harness's probes before the first window closes.  When [cfg.live_top]
   is set each closed window repaints a `top`-style dashboard. *)
let attach_series (cfg : Run_config.t) sim ~default_tick_ms ~title ~register =
  let tick_ms = Option.value cfg.Run_config.tick_ms ~default:default_tick_ms in
  let ts = Obs.Timeseries.create ~tick_ms in
  register ts;
  Sim.set_tick sim ~every_ms:tick_ms (fun ~now ->
      Obs.Timeseries.tick ts ~now;
      if cfg.Run_config.live_top then begin
        clear_screen ();
        print_string (Obs.Timeseries.render_top ~title ts);
        flush stdout
      end);
  ts

(* Detach the tick and flush the series to [cfg.series_out] as JSONL,
   when configured. *)
let finish_series (cfg : Run_config.t) sim ts =
  Sim.clear_tick sim;
  match cfg.Run_config.series_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Obs.Timeseries.to_jsonl ts);
    close_out oc
