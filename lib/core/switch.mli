(** The P4Update switch: a {!P4rt.Pipeline} program attached to one
    network node.

    The pipeline parses FRM/UIM/UNM/UFM control messages and data packets,
    keeps the UIB registers of Table 1, runs the verification algorithms
    (via {!Verify}), coordinates updates by cloning UNMs toward the
    notify port, resubmits notifications that must wait (for a missing
    UIM or for link capacity), and punts FRMs/UFMs to the controller.

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
}

(** [create net ~node] builds the switch, initializes its per-port
    capacity registers from the topology and attaches it to the network. *)
val create : Netsim.t -> node:int -> t

val node : t -> int
val stats : t -> stats
val uib : t -> Uib.t
val pipeline : t -> P4rt.Pipeline.t

(** The pipeline's ingress port for host-injected data frames. *)
val host_port : int

(** [on_commit t f] registers [f ~flow_id ~version ~time], called whenever
    this switch commits a forwarding rule. *)
val on_commit : t -> (flow_id:int -> version:int -> time:float -> unit) -> unit

(** [on_deliver t f] registers an egress hook: [f ~time d] runs whenever
    this switch delivers data packet [d] locally (its rule maps the flow
    to [Wire.port_local]).  Local delivery never crosses a link, so
    [Netsim.on_delivery] observers cannot see it — this hook is how a
    live auditor learns a packet left the network. *)
val on_deliver : t -> (time:float -> Wire.data -> unit) -> unit

(** [inject_data t data] lets the attached host push a data packet into
    the ingress pipeline (used by traffic generators). *)
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

(** Resubmission budget for a single waiting notification before the
    switch gives up and alarms the controller. *)
val wait_budget : int

(** Digest of the switch's full soft state — UIB registers plus staged
    commits and scratch tables — for the model checker's revisited-state
    pruning.  Equal states hash equal regardless of table insertion
    order. *)
val fingerprint : t -> int

(** Test-only: drop the DESIGN §4b egress-port guard so a segment-egress
    gateway without a live forwarding rule still proposes its segment
    (the paper's literal Alg. 2).  Global toggle; always restore to
    [false] after use. *)
val set_unsafe_ruleless_gateway : bool -> unit
