(** Live traffic engine with per-packet consistency auditing.

    Injects sustained per-flow probe packets at each flow's ingress
    (gaps drawn from the world's simulation RNG, so a seed fully
    determines the packet schedule) while updates race through the data
    plane, records every packet's actual hop trajectory via
    [Netsim.on_delivery] plus the [Switch.on_deliver] egress hook, and
    classifies each packet against the flow's version history — an
    empirical Thm. 1/2 check on live packets racing rule installations.

    A packet is {e consistent} iff a version assignment exists along its
    trajectory's edges (each edge is allowed the versions whose path
    contains it) that never decreases — except out of a version
    installed by a {e dual-layer} update, whose gateway exits legally
    drop a packet from a committed new-path segment back onto the old
    path (DL guarantees loop/blackhole freedom via distance labels, not
    version monotonicity; loops and blackholes are audited separately).
    Downstream-first commits make old-prefix/new-suffix switchovers
    legal (versions go up); any other {e downgrade} — an upstream node
    switched before its downstream was ready — is the violation local
    verification rules out.  Absent injected faults a correct plane
    yields zero [Mixed], [Loop] and [Blackhole] packets. *)

type workload = {
  tw_mean_gap_ms : float;  (** per-flow mean inter-packet gap *)
  tw_poisson : bool;       (** exponential gaps; false = constant rate *)
  tw_stop_ms : float;      (** injection stops at this simulated time *)
  tw_ttl : int;
}

(** Poisson, 2.5 ms mean gap per flow, stop at 800 ms, TTL 64. *)
val default_workload : workload

type outcome =
  | Old_path   (** explainable by versions current at injection *)
  | New_path   (** needed a later version: rode an update's legal switchover *)
  | Mixed      (** version downgrade or misdelivery — a real violation *)
  | Loop       (** a directed edge repeats in the trajectory *)
  | Blackhole  (** never delivered by drain *)

val outcome_name : outcome -> string

(** {2 Classification} *)

(** One entry of a flow's version history. *)
type vrec = {
  vr_version : int;
  vr_edges : int list;  (** the version path's directed edges, {!edges_of_path} *)
  vr_dl : bool;         (** installed by a dual-layer update *)
}

(** Directed edges of a node path, oldest first, one int each. *)
val edges_of_path : int list -> int list

(** [classify ~history ~cap ~dst ~delivered_at hops] is a probe's
    outcome: [history] is its flow's version history (any order, one
    entry per version), [cap] the flow's controller version when the
    probe was injected, [dst] the flow's destination, [delivered_at] the
    node it left the network at ([-1] if it never did) and [hops] its
    visited nodes, newest first.  [Loop] on a repeated directed edge,
    then [Blackhole] if undelivered, [Mixed] if misdelivered, [Old_path]
    if a consistent version assignment exists within [cap], [New_path]
    if one exists at all, else [Mixed].  Allocates nothing. *)
val classify :
  history:vrec list -> cap:int -> dst:int -> delivered_at:int -> int list -> outcome

type summary = {
  ts_injected : int;
  ts_delivered : int;
  ts_dropped : int;
  ts_reordered : int;
  ts_old_path : int;
  ts_new_path : int;
  ts_mixed : int;
  ts_loops : int;
  ts_blackholes : int;
  ts_excused : int;       (** blackholes waived by a {!drain} excuse predicate *)
  ts_p50_ms : float;
  ts_p99_ms : float;
  ts_sim_ms : float;
  ts_wall_s : float;
  ts_pkts_per_s : float;  (** injected per wall second (0 when untimed) *)
  ts_digest : int;        (** seq-ordered per-packet outcome digest *)
}

(** Consistency violations: [ts_mixed + ts_loops + ts_blackholes]. *)
val violations : summary -> int

type t

(** [attach ?workload w] registers the auditor's observers (link hops,
    per-switch egress hooks, every controller push) and seeds the
    version history from the world's current flows; each push then
    extends it.  Injection starts with {!start}.  Raises
    [Invalid_argument] unless [tw_mean_gap_ms] is finite and positive. *)
val attach : ?workload:workload -> World.t -> t

(** Arm one injector per known flow (idempotent per flow). *)
val start : t -> unit

(** Extend or resume injection until [stop_ms] (simulated).  The soak
    monitor uses this to run probe bursts cycle after cycle on a single
    engine: idle injectors are re-armed, running ones simply observe the
    later deadline. *)
val inject_until : t -> stop_ms:float -> unit

(** Record a newly admitted flow and arm its injector. *)
val note_admitted : t -> flow_id:int -> unit

(** Classify and retire every packet injected so far, folding it into
    the running totals that {!finalize} reports.  Call at quiet instants
    only (the plane drained, so every such packet is terminal); the
    flight window returns to empty, which is what lets a soak run audit
    millions of probes in bounded memory — and what its leak check
    verifies.  Drain batching is unobservable: one drain at the end and
    [N] incremental drains produce identical summaries, digest included.
    [?excuse flow ~injected_at] may waive a blackhole (e.g. the packet
    was injected while an element of the flow's path was failed); waived
    packets count as [ts_excused], not as violations. *)
val drain : ?excuse:(int -> injected_at:float -> bool) -> t -> unit

(** Packets injected but not yet retired by {!drain} — the leak probe. *)
val in_flight : t -> int

(** Packets injected so far. *)
val injected : t -> int

(** A flow's version history, latest recorded first, one entry per
    version ([[]] for a flow the auditor never saw). *)
val history : t -> flow_id:int -> vrec list

(** Drain the remainder and summarise the whole run.  Call once the
    plane has drained ([World.run] returned with an empty heap);
    undelivered packets classify as [Blackhole].  [wall_s] (when the
    caller timed the run) prices [ts_pkts_per_s]. *)
val finalize : ?wall_s:float -> t -> summary

val pp : Format.formatter -> summary -> unit
