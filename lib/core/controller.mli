(** The P4Update control plane (§6, §8).

    Keeps the Network Information Base and the Flow DB, computes the
    per-node update and verification content (distance labels, DL
    segmentation), pushes UIMs to the data plane, and records UFMs.

    The preparation step ({!prepare}) is deliberately exposed as a pure
    function of the paths: Fig. 8 benchmarks exactly this computation
    against ez-Segway's. *)

type t

type flow = {
  flow_id : int;
  src : int;
  dst : int;
  size : int;             (** centi-units *)
  mutable version : int;
  mutable path : int list;
  mutable last_type : Wire.update_type;
}

(** A fully prepared update: one UIM per node of the new path. *)
type prepared = {
  p_flow : int;
  p_version : int;
  p_type : Wire.update_type;
  p_uims : (int * Wire.control) list;  (** destination node, message *)
  p_segments : Segment.t option;       (** present for DL updates *)
  p_old_path : int list;
      (** the path this update moves away from — what an abort reverts to *)
}

(** An UFM as recorded by the controller. *)
type report = {
  r_flow : int;
  r_version : int;
  r_status : int;   (** {!Wire.ufm_success} or an alarm code *)
  r_node : int;
  r_time : float;
}

(** Snapshot of the §11 recovery counters (see {!enable_recovery}).  The
    live counters sit in the network's [Obs.Metrics] registry under
    [recovery.retransmissions] etc., so Traced / Chaos / Soak all read
    one source; this record is a point-in-time copy. *)
type recovery_stats = {
  retransmissions : int; (** idempotent UIM re-sends *)
  reroutes : int;        (** re-label/re-segment around a failure *)
  resyncs : int;         (** UIB re-syncs after a switch restart *)
  aborts : int;          (** updates withdrawn and rolled back (§11 abort) *)
  give_ups : int;        (** retry/deadline exhaustions that triggered an abort *)
}

(** [create net] builds the controller of [net] and wires {!handle} in
    as the network's controller-channel handler. *)
val create : Netsim.t -> t

val net : t -> Netsim.t

(** {2 Flow DB} *)

(** [register_flow t ~src ~dst ~size ~path] adds a flow (version 1 by
    default, assumed already installed in the data plane, e.g. via
    {!Switch.install_initial}).  Returns the flow record.  The flow id is
    {!Topo.Traffic.flow_id_of_pair} masked into {!Wire.flow_space} unless
    [?flow_id] overrides it — the intent bridge uses the override to give
    each ECMP member of one (src, dst) pair its own flow identity.
    Raises [Invalid_argument] when an explicit id falls outside the flow
    space. *)
val register_flow :
  ?version:int ->
  ?flow_id:int ->
  t ->
  src:int ->
  dst:int ->
  size:int ->
  path:int list ->
  flow

(** Default size assigned to flows the data plane reports via FRM. *)
val default_flow_size : int

(** When enabled (default), an FRM for an unknown flow makes the
    controller compute a shortest path and deploy it with a (blackhole-
    free, egress-first) SL update — the new-flow setup loop of §6. *)
val set_auto_route : t -> bool -> unit

(** When enabled, a timeout alarm ({!Wire.ufm_alarm_timeout}) makes the
    controller re-push the corresponding update's indications, up to
    [retrigger_budget] times per flow and version (§11 failure
    handling).  Disabled by default. *)
val set_auto_retrigger : t -> bool -> unit

val retrigger_budget : int

(** Appendix C: when enabled the §7.5 policy no longer forces SL after a
    DL update (the switches must have {!Switch.enable_consecutive_dl}). *)
val set_allow_consecutive_dl : t -> bool -> unit

val find_flow : t -> flow_id:int -> flow option
val flows : t -> flow list

(** Digest of the flow database, retrigger bookkeeping and alarm count,
    for the model checker's revisited-state pruning. *)
val fingerprint : t -> int

(** {2 Preparation (the Fig. 8 benchmark surface)} *)

(** [choose_type t ~old_path ~new_path ~last_type] applies the §7.5
    policy: single-layer when the update only installs rules on few
    (≤ {!sl_threshold}) nodes, all inside forward segments; dual-layer
    otherwise.  A flow whose last update was dual-layer must use SL
    (Thm. 4). *)
val choose_type :
  t -> old_path:int list -> new_path:int list -> last_type:Wire.update_type ->
  Wire.update_type

val sl_threshold : int

(** [prepare t ~flow_id ~new_path ?update_type ?assume_old_path ()]
    computes the UIMs for the next version of the flow without sending
    anything.  The update type defaults to the §7.5 policy choice.
    [assume_old_path] overrides the controller's view of the current path
    (used to reproduce the inconsistent-view scenarios of §4/§9). *)
val prepare :
  t ->
  flow_id:int ->
  new_path:int list ->
  ?update_type:Wire.update_type ->
  ?assume_old_path:int list ->
  ?two_phase:bool ->
  unit ->
  prepared

(** [prepare_batch t requests] prepares one update per [(flow_id,
    new_path)] request, in order, sharing traversal state across the
    whole batch: the neighbor→port index and the controller's node id
    are computed once and reused, so preparing [n] concurrent updates
    costs [n] labellings plus one index build instead of [n] full
    topology walks.  Each update's type follows the §7.5 policy.  The
    index is also kept for later calls (ports are static), which is what
    makes sustained preparation throughput scale — the scale engine's
    arrival bursts go through this entry point. *)
val prepare_batch : t -> (int * int list) list -> prepared list

(** [bump_version t ~flow_id] advances the flow's version without pushing
    anything (so a later prepare yields a yet-higher version). *)
val bump_version : t -> flow_id:int -> unit

(** {2 Update execution} *)

(** [push t prepared] sends every UIM through the control channel and
    advances the Flow DB to the new version/path. *)
val push : t -> prepared -> unit

(** [update_flow t ~flow_id ~new_path ?update_type ()] = prepare + push;
    returns the pushed version. *)
val update_flow :
  t ->
  flow_id:int ->
  new_path:int list ->
  ?update_type:Wire.update_type ->
  ?two_phase:bool ->
  unit ->
  int

(** {2 UFM collection} *)

(** All reports received so far (most recent last). *)
val reports : t -> report list

(** [completion_time t ~flow_id ~version] is the time of the first
    success UFM for that update, if received: a table lookup, filled as
    reports arrive. *)
val completion_time : t -> flow_id:int -> version:int -> float option

(** [on_report t f] registers a hook called on every incoming UFM. *)
val on_report : t -> (report -> unit) -> unit

(** [on_push t f] registers a hook called right after {e every}
    {!push} — including the recovery loop's internal reroutes, resyncs
    and auto-routed new flows — once the Flow DB already shows the new
    version and path.  The traffic auditor subscribes here so its
    per-flow version history never misses a path the plane is actually
    switching to. *)
val on_push : t -> (flow_id:int -> version:int -> unit) -> unit

(** Number of alarm UFMs received. *)
val alarm_count : t -> int

(** {2 §11 failure recovery}

    [enable_recovery t] turns on the controller-side recovery loop:

    - every pushed update arms a per-flow timeout ([timeout_ms], doubling
      on each retry up to [max_retries]); on expiry without a success UFM
      the controller retransmits the same (flow, version) UIM set —
      retransmission is idempotent because switches reject non-higher
      versions and re-acknowledge already-committed ones;
    - when the flow's path lost a link or node (detected on timeout, on a
      watchdog alarm, or immediately via a topology observer), the flow is
      re-labelled and re-segmented onto a shortest surviving path;
    - when a switch restarts ({!Netsim.Node_up}), every flow through it is
      re-deployed at a fresh version, re-syncing the blank UIB from the
      controller's NIB;
    - when [max_retries] is exhausted (or [deadline_ms] passes after a
      push) with no success UFM and no surviving reroute, the update is
      {e aborted}: withdrawn from the data plane and rolled back (see
      {!abort_update}) instead of being silently dropped. *)
val enable_recovery :
  ?timeout_ms:float -> ?max_retries:int -> ?deadline_ms:float -> t -> unit

(** Recovery counters, when {!enable_recovery} was called. *)
val recovery_stats : t -> recovery_stats option

(** {2 §11 abort / rollback}

    [abort_update t ~flow_id] gives up on the flow's in-flight update: a
    withdraw (WDM) tells every node of the pushed path to discard staged
    new-version UIB state, and the Flow DB reverts to the old path.  Safe
    because old rules persist until final verification — uncommitted
    nodes still forward on the old version, and committed nodes have (by
    downstream-first ordering) a committed chain to the egress, so
    Thm. 1-4 hold across the abort.  Returns [false] (and does nothing)
    when there is no in-flight update, it already completed, or this
    version was already aborted — abort is idempotent and
    version-checked.  A success UFM that raced the withdraw and still
    lands rescinds the abort: the path was in fact committed end to end.
    The recovery loop calls this on retry/deadline exhaustion. *)
val abort_update : ?reason:string -> t -> flow_id:int -> bool

(** Highest aborted (not rescinded) version of a flow, if any. *)
val aborted_version : t -> flow_id:int -> int option

(** [retire_flow t ~flow_id] forgets the flow — Flow DB, push history and
    abort/retrigger bookkeeping — so long-horizon workloads (soak churn)
    return to their baseline footprint.  Installed data-plane rules stay;
    a stale rule cannot violate the consistency invariants. *)
val retire_flow : t -> flow_id:int -> unit

(** [handle t ~from bytes] processes one control-channel frame (FRM/UFM)
    as if it had been delivered to this controller.  {!create} wires this
    into the network via {!Netsim.set_controller}, which holds a single
    handler: creating several controllers over one network leaves only
    the last one wired.  A caller that re-points the handler (perfbench
    wraps it in a timer) dispatches here. *)
val handle : t -> from:int -> Bytes.t -> unit
