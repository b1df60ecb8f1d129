(** Seeded chaos harness (§11): random fault schedules on both planes,
    scheduled link/node failures, invariant probes and a convergence
    verdict, reproducible from a single seed.

    A run draws a workload of 3 flows (old path installed, an update to
    an alternative path scheduled mid-window), then injects stochastic
    faults — drop, delay, reorder-via-delay, corrupt, duplicate — on the
    data plane and the control channel for the duration of the fault
    window, plus up to two link/node failures (each restored within the
    window).  Every 500 ms the forwarding state of every flow is checked
    against the Thm. 1–4 invariants:

    - no loop, ever;
    - no blackhole at a node that never failed;
    - no over-capacity link;
    - per-switch committed versions strictly increase (reset only by a
      switch restart).

    Corrupted control-typed frames are dropped rather than delivered
    (the Ethernet-FCS model); data frames get an actual bit flip.

    The same (scenario, seed, fault plan) reproduces the same run, byte for
    byte ([r_trace_hash] is a digest of every data-plane delivery).  The
    report also contains the fault-free baseline of the same seed for a
    one-line degradation summary ({!report_line}). *)

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

(** [run cfg ~scenario]: the seed, the flight recorder, the trace sink
    and the fault plan (default {!Run_config.default_faults}) all come
    from [cfg].  Executes the faulty run and its fault-free baseline
    (identical workload) and merges both into one report.  The sink is
    installed around the degraded run only (not the baseline);
    injected faults appear as ["fault.injected"] instants in category
    ["chaos"].  Tracing never perturbs the schedule, so the report —
    including [r_trace_hash] — is identical with or without a sink.

    [?traffic] additionally races sustained probe traffic (the
    {!Traffic} auditor) through the degraded run — not the baseline —
    and reports the per-packet audit in [r_traffic].  Runs without
    [?traffic] draw exactly the same schedule as before the auditor
    existed ([r_trace_hash] unchanged). *)
val run : ?traffic:Traffic.workload -> Run_config.t -> scenario:scenario -> report

(** One-line degradation summary. *)
val report_line : report -> string

(** {2 Fault-model building blocks}

    Shared with the fault window of {!Run} so every harness applies
    the same Ethernet-FCS corruption model, fault distribution and
    element-failure schedule. *)

(** A frame whose payload parses as a {!P4update.Wire.control} message
    (control-typed even when it travels the data plane, like UNMs). *)
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
