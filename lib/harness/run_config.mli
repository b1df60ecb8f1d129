(** The fault model of every faulted run (§11) and the switch-watchdog
    default: the values more than one harness (and the benchmark driver)
    reads.  It depends on nothing else in the harness, so {!Chaos} and
    {!Run} read it without a cycle.

    {!Chaos.install_faults} installs a {!faults} record for {!Chaos.run}
    and for a cycled {!Run.run}.  While the window is open, each frame
    of a class is faulted with the class's probability, the verdict from
    {!Chaos.draw_verdict} (40% drop, 30% delay, 15% corrupt, 15%
    duplicate; corrupting a control-typed frame drops it).  The window
    opens at 0 in a chaos run and at every cycle start in a cycled run,
    and schedules up to [element_failures] link/node failures, each
    restored inside it.  The presets:

    {v
    preset                  data_link control_link channel window  failures recovery
    chaos (default_faults)  0.08      0.08         0.08    3000 ms 2        Retries
    chaos no-recovery test  0.15      0.15         0       2000 ms 0        No_recovery
    soak                    0         0.05         0.05    2500 ms 2        Deadline 1500
    soak --quick            0         0.05         0.05    1600 ms 1        Deadline 1800
    fault-free baseline     0         0            0       (kept)  0        (kept)
    v}

    [chaos --no-recovery] sets [recovery] to [No_recovery]; [soak
    --fault-prob P] sets [control_link] and [channel] to P.  The record
    holds no closures, so a checker can enumerate it. *)

(** The controller's §11 recovery. *)
type recovery =
  | No_recovery        (** watchdog alarms only, nothing retransmitted *)
  | Retries            (** bounded retransmit / reroute / resync *)
  | Deadline of float  (** as [Retries], and abort an update after this many ms *)

type faults = {
  data_link : float;      (** per-frame fault probability, data frames on links *)
  control_link : float;   (** control-typed frames (UNM, CLN) on links *)
  channel : float;        (** control-channel frames (UIM, UFM, ...) *)
  window_ms : float;      (** faults and failures stop this long after the window opens *)
  element_failures : int; (** 0–n link/node failures per window, each restored *)
  recovery : recovery;
}

(** The single source of the switch-watchdog default (ms). *)
val default_watchdog_ms : float

(** The chaos preset (first row of the table). *)
val default_faults : faults

(** [fault_free f] is [f] with every probability and [element_failures]
    at 0: a chaos run's fault-free baseline. *)
val fault_free : faults -> faults
