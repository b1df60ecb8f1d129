(** Convenience builder that wires a topology, the P4Update switches and
    the controller into one simulated world. *)

type t = {
  sim : Dessim.Sim.t;
  net : Netsim.t;
  switches : P4update.Switch.t array;
  controller : P4update.Controller.t;
  plane : P4update.Controller.t;
      (** the same value as [controller], under the name perfbench's
          episode driver reads; every other caller uses [controller] *)
}

(** A flow to install at construction time: registered with the
    controller and its version-1 forwarding state installed on every
    node of [fs_path] (exactly what {!install_flow} does). *)
type flow_spec = { fs_src : int; fs_dst : int; fs_size : int; fs_path : int list }

(** [flow ~src ~dst ~path ()] builds a {!flow_spec} ([size] defaults to
    100). *)
val flow : ?size:int -> src:int -> dst:int -> path:int list -> unit -> flow_spec

(** [make ?seed ?config ?trace ?flows topo] builds the world (one switch
    per node and one controller) and installs every flow of [flows] in
    order.  Declarative construction replaces make-then-[install_flow]
    sequences; installed flows are found again with {!find_flow} /
    {!flow_of_pair}.  With [trace], the world's simulation adopts the
    sink (see {!Dessim.Sim.create}) and every layer records into it. *)
val make :
  ?seed:int ->
  ?config:Netsim.config ->
  ?trace:Obs.Trace.sink ->
  ?flows:flow_spec list ->
  Topo.Topologies.t ->
  t

(** [install_flow w ~src ~dst ~size ~path] registers the flow with the
    controller and installs its version-1 forwarding state on every node
    of [path].  Returns the flow record.  [?flow_id] overrides the
    pair-derived id (see {!P4update.Controller.register_flow}); the
    intent bridge needs it so ECMP members of one pair get distinct
    identities. *)
val install_flow :
  ?flow_id:int ->
  t ->
  src:int ->
  dst:int ->
  size:int ->
  path:int list ->
  P4update.Controller.flow

(** [find_flow w ~flow_id] looks the flow up in the controller's DB. *)
val find_flow : t -> flow_id:int -> P4update.Controller.flow option

(** [flow_of_pair w ~src ~dst] finds the flow installed for that pair
    (the id is {!Topo.Traffic.flow_id_of_pair} masked into the flow
    space, the same derivation {!install_flow} uses). *)
val flow_of_pair : t -> src:int -> dst:int -> P4update.Controller.flow option

(** All flows in the controller's DB, sorted by id. *)
val flows : t -> P4update.Controller.flow list

(** [run w] drains the event queue (optionally bounded). *)
val run : ?until:float -> t -> int
