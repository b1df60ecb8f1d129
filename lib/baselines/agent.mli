(** Shared switch-agent substrate for the two baselines.

    Central and ez-Segway run as OpenFlow-style switches with a local
    software agent (exactly how the paper deploys them, §9.1): a plain
    flow table, TTL-decrementing data forwarding and per-port capacity
    accounting.  Rule installation pays the platform's rule-update delay.
    Unlike the P4Update switch, agents have no verification — they install
    whatever they are told, which is the behaviour §4.1 demonstrates. *)

type t

(** [create net ~node ~on_message] builds the agent; control messages
    (anything that is not a data packet) are handed to [on_message]. *)
val create :
  Netsim.t ->
  node:int ->
  on_message:(t -> from_port:int -> P4update.Wire.control -> unit) ->
  t

val node : t -> int

(** {2 Forwarding state} *)

val port_of : t -> flow_id:int -> int
(** [P4update.Wire.port_none] when the flow has no rule *)

(** [set_rule t ~flow_id ~port] installs immediately (initial state). *)
val set_rule : t -> flow_id:int -> port:int -> unit

(** [install t ~flow_id ~port ~size ~k] installs after the rule-update
    delay, moving the capacity reservation, then runs [k ()].  Capacity is
    {e not} checked — the caller gates on it (or doesn't, like Central).
    When the rule leaves its old link, a cleanup packet (§11) is sent down
    that link so abandoned nodes free their state. *)
val install : t -> flow_id:int -> port:int -> size:int -> k:(unit -> unit) -> unit

(** [delete_rule t ~flow_id] removes the rule and frees its reservation,
    forwarding the cleanup along the abandoned path.  [version] guards the
    race with a concurrent update: agents that saw a command at least as
    new ignore the cleanup. *)
val handle_cleanup : t -> flow_id:int -> version:int -> unit

(** [note_version t ~flow_id ~version] records the newest update command
    this agent has seen for the flow. *)
val note_version : t -> flow_id:int -> version:int -> unit

(** {2 Capacity accounting} *)

val remaining : t -> port:int -> int
val reserve_initial : t -> flow_id:int -> port:int -> size:int -> unit

(** {2 Messaging} *)

val send : t -> port:int -> P4update.Wire.control -> unit
val send_to_controller : t -> P4update.Wire.control -> unit

(** [inject_data t data] host-side packet injection. *)
val inject_data : t -> P4update.Wire.data -> unit
