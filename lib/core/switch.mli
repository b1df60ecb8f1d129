(** The P4Update switch: the P4 program of §8 attached to one network
    node, run directly on its frames.

    Every frame — data, control, host-injected or resubmitted — takes
    one path, {!receive}.  Its parse verdict comes from the fixed
    offsets of {!Wire} (the verdict of the [Wire.parser] parse graph).
    A data frame is forwarded as a copy with ttl − 1 and the stamped
    tag; control frames carry FRM/UIM/UNM/UFM messages.  The switch keeps
    the UIB registers of Table 1, runs the verification algorithms (via
    {!Verify}), coordinates updates by sending UNMs toward the notify
    port, resubmits notifications that must wait (for a missing UIM or
    for link capacity), and punts FRMs and alarms to the controller.

    The same program written over the [Wire.parser] parse graph is the
    test suite's reference: a differential property holds the two to
    the same emissions, digests, deliveries, counters and parse
    errors.  A parse error is counted in the switch's own
    [stats.parse_errors].

    Forwarding-rule installation pays the platform's rule-update delay
    (when the network is configured with one); verification itself is
    pure packet processing. *)

type t

type stats = {
  mutable delivered : int;       (** data packets consumed at this egress *)
  mutable forwarded : int;       (** data packets sent on *)
  mutable dropped_no_rule : int; (** blackhole counter *)
  mutable dropped_ttl : int;     (** loop casualties *)
  mutable commits : int;         (** forwarding-rule commits *)
  mutable alarms : int;          (** inconsistencies reported (Alg. 1 l.8/12) *)
  mutable waits : int;           (** resubmissions while waiting for a UIM *)
  mutable congestion_defers : int;
  mutable withdrawals : int;     (** staged versions discarded by a WDM (§11 abort) *)
  mutable parse_errors : int;    (** frames too short for their etype *)
}

(** [create net ~node] builds the switch, initializes its per-port
    capacity registers from the topology and attaches it to the network. *)
val create : Netsim.t -> node:int -> t

val node : t -> int
val stats : t -> stats
val uib : t -> Uib.t

(** [receive t ~port bytes] processes one frame arriving on ingress
    [port]: a data port, {!Netsim.port_host} for host-injected frames,
    [-1] for a resubmission, or {!Netsim.port_controller} for controller
    frames.  {!create} attaches
    it to the network as the node's device.  A frame too short for its
    etype counts in [stats.parse_errors]; a foreign etype is dropped
    silently.  The received buffer is never written.
    The frame's emission (on [Netsim.transmit]) and digest (on
    [Netsim.notify_controller]) leave once it is processed, in that
    order, then its deferred sends, commits and resubmissions run.
    Under an [Obs.Trace] sink each frame is one ["pipeline.process"]
    span. *)
val receive : t -> port:int -> Bytes.t -> unit

(** [on_commit t f] registers [f ~flow_id ~version ~time], called whenever
    this switch commits a forwarding rule. *)
val on_commit : t -> (flow_id:int -> version:int -> time:float -> unit) -> unit

(** [on_deliver t f] registers an egress hook: [f ~time bytes] runs
    whenever this switch delivers the data frame [bytes] locally (its
    rule maps the flow to [Wire.port_local]).  [bytes] is the frame as
    received, read in place with the [Wire.data_*_of_bytes] readers like
    a [Netsim.on_delivery] observer's; the hook must not write it.
    Local delivery never crosses a link, so [Netsim.on_delivery]
    observers cannot see it — this hook is how a live auditor learns a
    packet left the network. *)
val on_deliver : t -> (time:float -> Bytes.t -> unit) -> unit

(** [inject_data t data] lets the attached host push a data packet into
    the switch's ingress, as {!receive} on {!Netsim.port_host} (used by traffic
    generators). *)
val inject_data : t -> Wire.data -> unit

(** [restart t] models a power cycle (§11): the UIB registers are reset,
    staged commits are cancelled and the scratch tables cleared; port
    capacities are re-installed from the platform configuration.  The
    controller re-syncs the UIB afterwards (see
    {!Controller.enable_recovery}).  {!Harness.World} calls this
    automatically when the network reports {!Netsim.Node_up}. *)
val restart : t -> unit

(** [install_initial t ~flow_id ~version ~dist ~egress_port ~notify_port
    ~size] writes the committed state directly through the control plane
    (initial deployment, before any measured update). *)
val install_initial :
  t ->
  flow_id:int ->
  version:int ->
  dist:int ->
  egress_port:int ->
  notify_port:int ->
  size:int ->
  unit

(** Current forwarding port for a flow ({!Wire.port_none} if no rule). *)
val forwarding_port : t -> flow_id:int -> int

(** Committed version of a flow at this switch. *)
val version_of : t -> flow_id:int -> int

(** [enable_watchdog t ~timeout_ms] arms the §11 failure handling: after
    staging an indication, the switch expects the corresponding
    notification chain to commit it within [timeout_ms]; otherwise it
    alarms the controller ({!Wire.ufm_alarm_timeout}), which can
    re-trigger the update. *)
val enable_watchdog : t -> timeout_ms:float -> unit

(** Opt into the Appendix C extension: dual-layer updates may follow
    dual-layer updates (gateways then follow already-committed parents
    instead of the exhausted old-distance labels). *)
val enable_consecutive_dl : t -> unit

(** Digest of the switch's full soft state — UIB registers plus staged
    commits and scratch tables — for the model checker's revisited-state
    pruning.  Equal states hash equal regardless of table insertion
    order. *)
val fingerprint : t -> int

(** The two DESIGN §4b guards this switch adds to the paper's literal
    Alg. 2, and §7.4's priority gate. *)
type guard =
  | Inside_segment_label
      (** fix 1: an inside-segment node that still carries a live rule
          joins only a segment with a strictly smaller old-distance label
          (see {!Verify.dl_verify}) *)
  | Gateway_rule
      (** fix 2: a segment-egress gateway proposes its segment only while
          it holds a forwarding rule *)
  | Priority_gate
      (** §7.4: a low-priority flow waits while a promoted flow is queued
          for the port it wants (see {!Congestion.check}) *)

(** Drop one guard on this switch; no other switch or world is
    affected.  The model checker's regression pins drop a §4b fix on
    every switch of one world to show the violation it prevents, and
    the scheduler ablation drops the priority gate on the worlds it
    samples. *)
val disable_guard : t -> guard -> unit
