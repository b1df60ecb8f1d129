(** Soak monitor: long-horizon graceful-degradation runs — a cycled
    {!Run} with every monitor on.

    Composes the three stress dimensions on one world and keeps them
    running for hours of simulated time, organised in fixed-length
    cycles: Scale-style churn (a constant flow population rotating onto
    alternative paths, a few flows per cycle retired and re-admitted),
    Chaos-style rolling faults (control-typed messages faulted with the
    shared {!Chaos.draw_verdict} distribution during a per-cycle window,
    plus link/node failures restored inside it) and sustained {!Traffic}
    probes audited packet by packet.  Probe data is never faulted
    directly, so every probe violation indicts the update plane; element
    failures do drop probes, which the flow-agnostic blackhole excuse
    accounts for ([ts_excused]).

    Bounded retries plus the operator deadline make the §11 ladder run
    end to end every cycle — retransmit, reroute, resync, and the
    abort/rollback path — while probes keep racing packets through it.
    At every cycle boundary the traffic engine drains into running
    totals and the monitor takes leak readings: the event heap, the Flow
    DB and the flight table must return to baseline.  After the settle
    tail, no trace anchor may be outstanding and no pushed update may be
    {e stuck} (neither completed, superseded, retired nor aborted).
    {!Run.ok} is the soak SLO. *)

(** 8 cycles of 6 s, then an 8 s settle tail. *)
val default_cycles : Run.cycles

(** Probes at a 1 ms mean gap for the first 4 s of each cycle. *)
val default_audit : Traffic.workload

(** 5% control-frame faults in a 2.5 s window, up to 2 element failures
    and a 1.5 s operator deadline. *)
val default_faults : Run.faults

(** ~1.28M expected probe packets: 40 flows, 48 updates per cycle in
    bursts of 4, 2 churned per cycle, probes every 500 ms, with
    {!default_cycles}, {!default_audit} and {!default_faults}. *)
val default_config : Run.workload

(** 3 cycles of 4 s, then a 6 s settle tail. *)
val quick_cycles : Run.cycles

(** A CI-sized run (tens of thousands of probes) with every mechanism
    still exercised. *)
val quick_config : Run.workload

val pp : Format.formatter -> Run.result -> unit

(** One line per cycle reading, plus one line per stuck update, leak and
    invariant violation, plus one sparkline trend per SLO metric — the
    CLI's machine-greppable breach report. *)
val report_lines : Run.result -> string list
