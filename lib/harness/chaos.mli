(** Seeded chaos harness (§11): random fault schedules on both planes,
    scheduled link/node failures, invariant probes and a convergence
    verdict, reproducible from a single seed.

    A run draws a workload of 3 flows (old path installed, an update to
    an alternative path scheduled mid-window) under a {!Run_config.faults}
    model: drop, delay, reorder-via-delay, corrupt and duplicate faults
    on links and the control channel while the window is open, plus up
    to [element_failures] link/node failures, each restored within it.
    Every 500 ms until the horizon the forwarding state of every flow is
    checked against the Thm. 1–4 invariants:

    - no loop, ever;
    - no blackhole at a node that never failed;
    - no over-capacity link;
    - per-switch committed versions strictly increase (reset only by a
      switch restart).

    The same (scenario, seed, faults, horizon) reproduces the same run,
    byte for byte ([r_trace_hash] is a digest of every data-plane
    delivery).  The report also contains the fault-free baseline
    ({!Run_config.fault_free}) of the same seed for a one-line
    degradation summary ({!report_line}). *)

type scenario = Fig1 | B4 | Fat_tree

val scenario_name : scenario -> string
val scenario_of_string : string -> scenario option
val all_scenarios : scenario list

(** Re-export of {!Invariants.violation}: probes live in {!Invariants},
    shared with the property tests and the [lib/mc] model checker. *)
type violation = Invariants.violation = {
  v_time : float;
  v_flow : int;
  v_what : string;
}

type report = {
  r_scenario : scenario;
  r_seed : int;
  r_flows : int;
  r_converged : int;   (** flows whose final forwarding state matches the NIB *)
  r_baseline_converged : int;
  r_violations : violation list;
  r_retransmissions : int;
  r_reroutes : int;
  r_resyncs : int;
  r_aborts : int;    (** §11 aborts: updates withdrawn after exhausted recovery *)
  r_give_ups : int;  (** recovery loops that ran out of retries or deadline *)
  r_alarms : int;
  r_dropped_by_fault : int;
  r_dropped_by_failure : int;
  r_element_failures : int;
  r_completion_ms : float option;  (** last flow's success UFM, when all reported *)
  r_baseline_completion_ms : float option;
  r_trace_hash : int;              (** digest of all data-plane deliveries *)
  r_traffic : Traffic.summary option;
      (** per-packet audit of the degraded run, when probe traffic was
          requested.  Under faults, blackholes (dropped probes) and
          duplicate-induced loop classifications are expected — the
          interesting signal is [ts_mixed]. *)
}

(** All invariants held and every flow converged. *)
val ok : report -> bool

(** [run ~faults ~seed scenario] executes the faulty run and its
    fault-free baseline (identical workload, seeded with [seed]), each
    simulated for [horizon_ms] (default 120 s), and merges both into one
    report.  The degraded run's simulation adopts [trace] (the baseline
    runs untraced); each injected fault appears as a [fault.*] instant of
    category ["fault"], recorded by {!Netsim}.  Tracing never perturbs
    the schedule, so the report — including [r_trace_hash] — is
    identical with or without a sink.

    [?traffic] additionally races sustained probe traffic (the
    {!Traffic} auditor) through the degraded run — not the baseline —
    and reports the per-packet audit in [r_traffic].  Runs without
    [?traffic] draw exactly the same schedule as before the auditor
    existed ([r_trace_hash] unchanged). *)
val run :
  ?traffic:Traffic.workload ->
  ?trace:Obs.Trace.sink ->
  ?horizon_ms:float ->
  faults:Run_config.faults ->
  seed:int ->
  scenario ->
  report

(** One-line degradation summary. *)
val report_line : report -> string

(** {2 The fault model}

    Shared with {!Run}, so every harness applies the same corruption
    model, verdict distribution and element-failure schedule. *)

(** [install_faults w faults ~open_] arms every switch's watchdog
    ({!Run_config.default_watchdog_ms}), the §11 recovery [faults] asks
    for, and the frame hooks.  A hook tests [open_ ()] first and the
    frame class second; a class at probability 0 draws nothing, and
    neither the links (both link classes at 0) nor the channel (at 0)
    get a hook.  Element failures are {!schedule_element_failures}. *)
val install_faults : World.t -> Run_config.faults -> open_:(unit -> bool) -> unit

(** A frame whose payload parses as a {!P4update.Wire.control} message
    (control-typed even when it travels the data plane, like UNMs).  The
    kind is read in place; it allocates nothing. *)
val is_control_frame : bytes -> bool

(** Draw a {!Netsim.fault} verdict from the shared distribution (40%
    drop / 30% delay / 15% corrupt / 15% duplicate among faulted
    packets).  [~downgrade_corrupt] turns Corrupt into Drop — the FCS
    model for control-typed frames. *)
val draw_verdict : Dessim.Sim.t -> downgrade_corrupt:bool -> Netsim.fault

(** [schedule_element_failures ?start w ~window_ms ~max_failures]
    schedules 0 to [max_failures] link/node failures (none when the
    [window_ms] fault window is under 1.5 s), each failing 200 ms or more
    into the window that opens at [start] (default 0) and restored
    0.3–1 s later.  Returns how many were scheduled. *)
val schedule_element_failures :
  ?start:float -> World.t -> window_ms:float -> max_failures:int -> int
