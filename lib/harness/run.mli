(** The burst-run loop: one loop behind the scale engine, the traffic
    audit and the soak monitor.

    A run composes three kinds of value on one world:

    - a {e workload}: a flow population (rotation slots, each flow with
      at least two alternative paths) or, with
      [Run_config.intent_churn], the {!Intent_churn} program; Poisson
      arrival bursts of distinct flows prepared through
      [Controller.prepare_batch] and pushed; churn; and the pacing — one
      open update stream ({!Scale}) or fixed-length cycles ({!Soak});
    - {e monitors}: Thm. 1–4 probes every n bursts or every t ms, the
      {!Traffic} per-packet auditor, and the control-frame fault window
      with scheduled element failures under §11 recovery.  A cycled run
      also takes leak readings at every cycle boundary and looks for
      stuck updates after the settle tail;
    - one {!result} record.

    A flow id is never admitted twice.  Ids are a hash of the pair
    masked into the flow space, so two pairs can share one; re-admitting
    an id after churn retired it would bring it back at version 1 over
    the retired flow's higher-version switch state — a version rollback
    local verification cannot tell from a fault.

    Everything random draws from the world's simulation RNG, so
    [Run_config.seed] determines the run; only the wall-clock fields
    vary. *)

(** How the population churns. *)
type churn =
  | Per_burst of float
      (** probability that a burst then replaces one random slot's flow;
          the old flow stays registered with its final state installed *)
  | Per_cycle of int
      (** flows retired from the control plane and replaced at random
          instants of each cycle (cycled runs only) *)

(** [cycles] cycles of [cycle_ms]: each opens the fault window,
    schedules churn, pushes [updates] (arrivals stop 1.2 s before the
    cycle ends) and probes, then ends in a drained boundary reading;
    [tail_ms] of settling follows the last one. *)
type cycles = { cycles : int; cycle_ms : float; tail_ms : float }

(** How arrivals are paced. *)
type pacing =
  | Open of float
      (** one stream of bursts until [updates] are pushed; the argument
          bounds the simulation (ms) *)
  | Cycles of cycles

(** When the Thm. 1–4 probes run.  Unless probing is disabled, the
    quiesced plane is probed once more at the end. *)
type probe =
  | Every_bursts of int  (** every n bursts; 0 disables probing *)
  | Every_ms of float    (** every t simulated ms *)

(** The control-frame fault window, at the start of each cycle.  Switch
    watchdogs run with {!Run_config.default_watchdog_ms}. *)
type faults = {
  control_prob : float;   (** per-message fault probability in the window *)
  window_ms : float;
  element_failures : int; (** max link/node failures per window, each restored *)
  deadline_ms : float option; (** §11 operator deadline → abort ([None]: retries only) *)
}

type workload = {
  flows : int;             (** population size (intent members with intent churn) *)
  updates : int;           (** update quota (per cycle when cycled) *)
  burst : int;             (** updates per arrival burst (distinct flows) *)
  arrival_mean_ms : float; (** Poisson mean between bursts *)
  churn : churn;
  pacing : pacing;
  probe : probe;
  audit : Traffic.workload option;
      (** probe traffic audited per packet; [tw_stop_ms] counts from
          each cycle's start *)
  faults : faults option;
}

(** Rolling SLO window length (simulated ms) when [Run_config.tick_ms]
    is not set: 1 s for an open run, 0.5 s for a cycled one. *)
val default_tick_ms : workload -> float

(** Leak reading at a cycle boundary, after the traffic drain. *)
type cycle = {
  cy_index : int;
  cy_injected : int;        (** cumulative probes injected so far *)
  cy_pending_events : int;  (** [Sim.pending]: event-heap footprint *)
  cy_flows : int;           (** Flow DB size (must equal the population) *)
  cy_in_flight : int;       (** traffic flight table after the drain *)
  cy_violations : int;      (** cumulative invariant violations *)
}

type result = {
  r_topology : string;
  r_pushed : int;
  r_completed : int;
  r_bursts : int;
  r_underfilled : int;
      (** bursts short of [burst] distinct flows (the pick ran out of
          tries on a tiny population) or, with intent churn, empty *)
  r_churned : int;         (** flows replaced, or intent events applied *)
  r_probes : int;
  r_completion_ms : float list; (** one sample per completed update *)
  r_p50_ms : float;
  r_p99_ms : float;
  r_sim_ms : float;        (** simulated time at the end *)
  r_wall_s : float;        (** wall time of the simulation loop *)
  r_events : int;
  r_events_per_s : float;  (** kernel dispatch rate (monotonic wall clock) *)
  r_updates_per_s : float; (** completed updates per wall second *)
  r_violations : Invariants.violation list;
  r_series : Obs.Timeseries.window list;
      (** rolling SLO windows: update-latency p50/p99, push (open) or
          probe (cycled) rate, completion rate, in-flight updates,
          recovery activity (cycled) and heap footprint *)
  r_traffic : Traffic.summary option; (** when [audit] was set *)
  r_cycles : cycle list;   (** chronological; empty for an open run *)
  r_element_failures : int;
  r_recovery : P4update.Controller.recovery_stats;
  r_withdrawals : int;     (** switch-side WDMs that discarded staged state *)
  r_stuck : (int * int) list;
      (** cycled runs: (flow, version) pushed but neither completed,
          superseded, retired nor aborted after the tail *)
  r_leaks : string list;   (** cycled runs: leak / monotonicity breaches *)
}

(** [run workload cfg topo] executes [workload] on a fresh world over
    [topo], seeded from [cfg]. *)
val run : workload -> Run_config.t -> Topo.Topologies.t -> result

(** Zero invariant violations, zero probe-audit violations (excused
    blackholes aside), zero stuck updates and zero leaks. *)
val ok : result -> bool

(** {2 Building blocks} *)

(** [alt_paths g ~src ~dst] is the alternative-path set a flow rotates
    over: [None] unless at least {e two} distinct k-shortest paths exist
    (a single-path flow would only generate no-op updates). *)
val alt_paths : Topo.Graph.t -> src:int -> dst:int -> int list array option

(** The rotation slots, with the set of every flow id ever admitted. *)
type population

(** [populate w ~flows] admits [flows] fresh size-1 flows, one at a
    time, drawing each pair from [w]'s RNG. *)
val populate : World.t -> flows:int -> population

(** [replace p ~retire i] puts a freshly admitted flow into slot [i]
    and returns its id.  With [retire] the slot's old flow is retired
    from the control plane first. *)
val replace : population -> retire:bool -> int -> int
