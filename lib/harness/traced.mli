(** Traced scenario runners and per-update phase breakdowns.

    Runs a {!Scenarios} scenario with an [Obs.Trace] sink installed and
    folds the resulting span tree into one row per (flow, version)
    explaining where the completion time went.  The phases are exact
    differences of milestones on the update's root span, so
    [prep + ctl_flight + propagation + verification + ack = total]
    by construction. *)

type phase_row = {
  ph_flow : int;
  ph_version : int;
  ph_prep : float;  (** controller compute before the first UIM leaves *)
  ph_ctl_flight : float;  (** push -> last UIM applied at a switch *)
  ph_propagation : float;  (** UNM hop time on the data plane *)
  ph_verification : float;  (** Alg. 1/2 rounds + rule-install waits *)
  ph_ack : float;  (** last commit -> success UFM at the controller *)
  ph_total : float;
}

(** Fold a sink's events into phase rows (updates with a completed root
    span only). *)
val phase_rows : Obs.Trace.sink -> phase_row list

(** Render rows as an aligned text table (with a sum line when there is
    more than one row). *)
val render_phases : phase_row list -> string

type result = {
  tr_sink : Obs.Trace.sink;
  tr_completion_ms : float;
  tr_phases : phase_row list;
}

(** [run_single cfg setup system ~old_path ~new_path] runs the
    single-flow scenario under a trace sink — [cfg.trace_sink] when
    present, otherwise a fresh one — with [cfg.seed].  [exclude]
    overrides the default category filter (["sim"; "net"; "p4rt"] —
    scheduler and packet-level events off, protocol spans on). *)
val run_single :
  Run_config.t ->
  ?update_type:P4update.Wire.update_type ->
  ?exclude:string list ->
  Scenarios.setup ->
  Scenarios.system ->
  old_path:int list ->
  new_path:int list ->
  result

(** [run_multi cfg setup system]: the multi-flow scenario, likewise. *)
val run_multi :
  Run_config.t ->
  ?update_type:P4update.Wire.update_type ->
  ?exclude:string list ->
  Scenarios.setup ->
  Scenarios.system ->
  result
