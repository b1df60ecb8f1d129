(** Centralized consistent updates ("Central" in §9.1).

    The controller computes a dependency relationship and greedily
    schedules, round after round, every rule change whose installation
    keeps the mixed forwarding state blackhole-, loop- and (optionally)
    congestion-free.  Each round costs a full control-plane round trip per
    switch plus the controller's queueing/processing delay; the next round
    only starts once every acknowledgement of the previous one has been
    processed — the behaviour whose cost §9.2 measures. *)

type t

(** [create net ~congestion] — when [congestion] is set, moves are also
    gated on link capacities. *)
val create : Netsim.t -> congestion:bool -> t

(** [register_flow t ~src ~dst ~size ~path] installs the initial state
    and returns the flow id. *)
val register_flow : t -> src:int -> dst:int -> size:int -> path:int list -> int

(** [schedule_updates t updates] starts a joint update of several flows
    ([flow_id, new_path] pairs).  Rounds run until all moves commit. *)
val schedule_updates : t -> (int * int list) list -> unit

(** [completion_time t] is the instant the last acknowledgement of the
    last round was processed, once the whole update is done. *)
val completion_time : t -> float option

(** Number of rounds the last update needed. *)
val rounds_used : t -> int

(** Forwarding trace from [src] (for consistency checks in tests). *)
val trace : t -> flow_id:int -> src:int -> int list option
