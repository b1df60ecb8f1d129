(** Network emulation layer — the stand-in for Mininet + veth links.

    A network instantiates the topology over a {!Dessim.Sim} event loop.
    Each node hosts a device (a P4 pipeline for P4Update, a plain local
    agent for the baselines) attached via {!attach}.  Ports of a node are
    numbered [0 .. degree-1] in the order of [Graph.neighbors]; the
    controller is reachable through a dedicated control channel rather
    than a data port.

    The control channel models the paper's setup (§9.1, §9.2): for WANs
    the controller sits at a topology node and the per-switch control
    latency is the shortest-path latency to it; for the fat-tree the
    latency is drawn from a normal distribution; the controller itself is
    a single-threaded FIFO server, so every control message also pays
    queueing plus a fixed 0.25 ms of processing (Jarschel-style model
    [40]). *)

type t

type control_latency =
  | Geo  (** shortest-path latency from the controller node *)
  | Normal_dist of { mean : float; stddev : float }
  | Fixed of float

type config = {
  switch_processing_ms : float;
      (** per-packet processing time in the data plane *)
  rule_update_mean_ms : float option;
      (** when set, applying a forwarding-rule change costs an additional
          Exp(mean) delay (the Dionysus-style straggler model of §9.1) *)
  resubmit_delay_ms : float;
      (** cost of one resubmission loop iteration (§8) *)
  control_latency : control_latency;
}

val default_config : config

(** Action returned by a fault hook for a packet in flight. *)
type fault = Deliver | Drop | Delay of float | Corrupt | Duplicate

(** Direction of a control-channel message, for {!set_control_fault}:
    [To_switch node] is a controller-to-switch downlink message (UIM),
    [To_controller node] a switch-to-controller uplink message
    (FRM/UFM). *)
type ctl_direction = To_switch of int | To_controller of int

(** Scheduled topology changes (see {!fail_link} etc.).  Observers
    registered with {!on_topology_event} see each transition once, at its
    simulated time. *)
type topo_event =
  | Link_down of int * int
  | Link_up of int * int
  | Node_down of int
  | Node_up of int

(** [create sim topo] builds the network.  Every frame in flight is a
    {!Dessim.Sim.frame_event} in [sim]'s queue, and the network installs
    itself as [sim]'s frame handler, so a simulation carries at most one
    network. *)
val create : ?config:config -> Dessim.Sim.t -> Topo.Topologies.t -> t

val sim : t -> Dessim.Sim.t
val topology : t -> Topo.Topologies.t
val graph : t -> Topo.Graph.t
val config : t -> config

(** {2 Port numbering} *)

val port_count : t -> node:int -> int
val neighbor_of_port : t -> node:int -> port:int -> int option
val port_of_neighbor : t -> node:int -> neighbor:int -> int

(** {2 Devices} *)

(** [attach t ~node handler] installs the device of [node]: every frame
    reaching [node] is [handler ~port bytes], with [port] a data port,
    one of the pseudo-ports below or [-1] for a resubmission.
    Re-attaching replaces the handler. *)
val attach : t -> node:int -> (port:int -> Bytes.t -> unit) -> unit

(** Ingress port of a controller-to-switch message ({!controller_transmit}). *)
val port_controller : int

(** Ingress port of host-injected traffic ({!host_inject}). *)
val port_host : int

(** [set_controller t handler] installs the controller message handler
    ([handler ~from bytes]). *)
val set_controller : t -> (from:int -> Bytes.t -> unit) -> unit

(** {2 Transmission} *)

(** [transmit t ~from ~port bytes] sends on a data link; delivery occurs
    after link propagation latency plus the receiver's processing time. *)
val transmit : t -> from:int -> port:int -> Bytes.t -> unit

(** Loopback re-injection after [resubmit_delay_ms] (BMv2 resubmit). *)
val resubmit : t -> node:int -> Bytes.t -> unit

(** [host_inject t ~node bytes] delivers [bytes] to [node]'s device as
    host traffic entering the network at that node, after [delay]
    (default 0) simulated ms, through the event heap.  Counted in
    [data_injected]; lost (counted as failure drop) if the node is
    down at delivery time. *)
val host_inject : ?delay:float -> t -> node:int -> Bytes.t -> unit

(** Switch-to-controller message (FRM/UFM). *)
val notify_controller : t -> from:int -> Bytes.t -> unit

(** Controller-to-switch message (UIM, rule installation).  Serialized
    through the controller's FIFO server. *)
val controller_transmit : t -> to_:int -> Bytes.t -> unit

(** Extra per-switch latency for applying a rule update; draws from the
    straggler distribution when configured, else 0. *)
val rule_update_delay : t -> node:int -> float

(** {2 Fault injection} *)

(** [set_data_fault t hook] intercepts every data-plane transmission.
    A [Duplicate] verdict delivers the packet twice; the extra copy is
    itself put through the hook at most once more (so the copy can still
    be dropped, delayed or corrupted), and a [Duplicate] verdict on the
    copy is absorbed — duplication storms are impossible. *)
val set_data_fault : t -> (from:int -> to_:int -> Bytes.t -> fault) -> unit
val clear_data_fault : t -> unit

(** [set_control_fault t hook] is the control-channel counterpart of
    {!set_data_fault}: it intercepts every {!controller_transmit} (as
    [To_switch node]) and {!notify_controller} (as [To_controller node])
    message, with the same fault and duplication semantics. *)
val set_control_fault : t -> (dir:ctl_direction -> Bytes.t -> fault) -> unit
val clear_control_fault : t -> unit

(** {2 Scheduled topology failures}

    A failed link loses every packet sent or in flight over it; a failed
    node emits nothing, receives nothing (messages to it are lost, not
    queued) and is expected to lose its pipeline state — the harness
    resets the switch's UIB registers when it observes [Node_up]
    (restart).  All transitions are scheduled at absolute simulated
    times and are observable through {!on_topology_event}; one that
    finds its element already in the target state does nothing.  An
    unknown link or node raises [Invalid_argument] at the call. *)

val fail_link : t -> u:int -> v:int -> at:float -> unit
val restore_link : t -> u:int -> v:int -> at:float -> unit
val fail_node : t -> node:int -> at:float -> unit
val restore_node : t -> node:int -> at:float -> unit

val node_is_up : t -> node:int -> bool
val link_is_up : t -> int -> int -> bool

val on_topology_event : t -> (topo_event -> unit) -> unit

(** {2 Observation} *)

(** [on_delivery t f] registers an observer called at every data-plane
    delivery with [(time, node, port, bytes)] before the device runs. *)
val on_delivery : t -> (float -> int -> int -> Bytes.t -> unit) -> unit

(** The network counters.  {!counters} returns the live record: the
    network bumps its fields as it goes, callers only read them. *)
type counters = private {
  mutable data_packets : int;
  mutable data_injected : int;  (** host packets entered via {!host_inject} *)
  mutable control_to_switch : int;
  mutable control_to_controller : int;
  mutable resubmissions : int;
  mutable dropped_by_fault : int;
  mutable delayed_by_fault : int;
  mutable corrupted_by_fault : int;
  mutable duplicated_by_fault : int;
  mutable dropped_by_failure : int;
      (** lost to a failed link or node (either plane) *)
}

val counters : t -> counters

(** Per-switch control-plane latency used by this network (for analysis). *)
val control_latency_of : t -> node:int -> float
