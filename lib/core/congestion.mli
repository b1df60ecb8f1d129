(** Local, dynamic congestion-freedom scheduler (§7.4, §A.2).

    Before committing a rule that moves a flow onto a new outgoing port,
    the node checks the remaining capacity of that port.  When the check
    fails the flow waits (the notification is resubmitted) and every flow
    currently routed over the contended port is promoted to high
    priority, so it can leave quickly and free the capacity.  A
    low-priority flow may only enter a port on which no promoted flow is
    still waiting to enter. *)

type verdict =
  | Proceed           (** commit now *)
  | Defer_capacity    (** insufficient remaining capacity: wait *)
  | Defer_priority    (** capacity fine, but a high-priority flow is queued *)

(** [check uib ~flow_id ~new_port ~size ~priority_gate ~high_priority
    ~other_high_waiters] evaluates whether the move of [flow_id] (of
    [size] centi-units) onto [new_port] may proceed.  [other_high_waiters]
    is the number of {e other} high-priority flows currently queued for
    [new_port]: with [priority_gate], a low-priority flow must let those
    go first (§7.4); without it only capacity is checked (the switch's
    [Priority_gate] guard, dropped by the scheduler ablation).  Moving
    within the same port, or to the local port, is always allowed
    (§A.2). *)
val check :
  Uib.t ->
  flow_id:int ->
  new_port:int ->
  size:int ->
  priority_gate:bool ->
  high_priority:bool ->
  other_high_waiters:int ->
  verdict

(** [apply_move uib ~flow_id ~old_port ~new_port ~old_size ~new_size]
    transfers the reservation when a commit happens. *)
val apply_move :
  Uib.t -> old_port:int -> new_port:int -> old_size:int -> new_size:int -> unit

(** [promote_upstream_flows uib ~contended_port] marks the contended port;
    the switch consults {!is_promoted} when processing waiting flows. *)
val note_contention : Uib.t -> port:int -> unit
val clear_contention : Uib.t -> port:int -> unit

(** A flow is promoted (high priority) when some other flow is waiting to
    enter the port this flow currently occupies. *)
val is_promoted : Uib.t -> flow_id:int -> bool
