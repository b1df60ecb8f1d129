(** Traced scenario runners and per-update phase breakdowns.

    Runs a {!Scenarios} scenario whose simulation records into an
    [Obs.Trace] sink and
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

(** Render rows as an aligned text table (with a sum line when there is
    more than one row). *)
val render_phases : phase_row list -> string

type result = {
  tr_sink : Obs.Trace.sink;
  tr_completion_ms : float;
  tr_phases : phase_row list;
}

(** [run ~seed setup system] runs seed [seed] of the scenario under a
    trace sink: [trace] when present, otherwise a fresh one that
    excludes the ["sim"; "net"; "p4rt"] categories (scheduler and
    packet-level events off, protocol spans on). *)
val run :
  ?trace:Obs.Trace.sink -> seed:int -> Scenarios.setup -> Scenarios.system -> result
