(** Update Information Base: the per-switch register set of Table 1,
    plus the staging registers for the latest UIM and the per-port
    capacity bookkeeping used by the congestion scheduler (§7.4).

    Per-flow registers are indexed by flow id ({!Wire.flow_space} cells
    each) and are 16 bits wide; per-port registers are indexed by port
    number and are 24 bits wide.  A write keeps the low bits of its value,
    as a P4 register array does, and an index out of range raises
    [Invalid_argument].  {!Switch} reads and writes the registers through
    the accessors below. *)

type t

(** [create ~ports] allocates the registers for one switch with [ports]
    data ports. *)
val create : ports:int -> t

(** [reset t] zeroes every register — the state of a power-cycled switch
    (§11).  Port capacities are configuration, not state; the caller
    re-installs them (see {!Switch.restart}). *)
val reset : t -> unit

(** Content digest of every register cell (committed state, staging
    registers, reservations).  Equal states hash equal; used by the
    model checker ([lib/mc]) to prune revisited global states. *)
val fingerprint : t -> int

(** {2 Committed per-flow state (Table 1)} *)

val ver_cur : t -> int -> int
(** V_n(v): committed version (register [new_version]) *)

val dist_cur : t -> int -> int
(** D_n(v): committed distance (register [new_distance]) *)

val ver_prev : t -> int -> int
(** V_o(v) (register [old_version]) *)

val dist_prev : t -> int -> int
(** D_o(v): old-distance label, possibly inherited (register [old_distance]) *)

val egress_port : t -> int -> int
(** active forwarding port ([Wire.port_none] when no rule) *)

val notify_port : t -> int -> int
(** port toward the committed child (upstream on the committed path) *)

val flow_size : t -> int -> int
val last_type : t -> int -> int
(** register [t]: 0 none, 1 single, 2 dual *)

val counter : t -> int -> int

val set_ver_cur : t -> int -> int -> unit
val set_dist_cur : t -> int -> int -> unit
val set_ver_prev : t -> int -> int -> unit
val set_dist_prev : t -> int -> int -> unit
val set_egress_port : t -> int -> int -> unit
val set_notify_port : t -> int -> int -> unit
val set_flow_size : t -> int -> int -> unit
val set_last_type : t -> int -> int -> unit
val set_counter : t -> int -> int -> unit

(** {2 Staged state from the highest UIM received so far} *)

val uim_version : t -> int -> int
val uim_distance : t -> int -> int
val uim_egress : t -> int -> int
val uim_notify : t -> int -> int
val uim_role : t -> int -> int
val uim_type : t -> int -> int
val uim_size : t -> int -> int

(** [stage_uim t flow_id frame] overwrites the staged state with the
    fields of the UIM [frame], read in place, if its version is strictly
    higher than the staged one (and above the withdraw floor).  Returns
    [true] when the message was accepted as the new highest indication.
    [flow_id] is the register index; the frame's own flow id is not
    read.  [frame] must be one {!Wire.control_of_bytes} accepts. *)
val stage_uim : t -> int -> Bytes.t -> bool

val withdrawn_version : t -> int -> int
(** highest version the controller has withdrawn here (0 = none);
    staged state at or below this floor is dead (§11 abort) *)

(** [withdraw t flow_id ~version] raises the withdraw floor to
    [version] unless that version is already committed ([ver_cur]).
    Returns [true] when staged state for exactly [version] existed and
    is now withdrawn. *)
val withdraw : t -> int -> version:int -> bool

(** {2 Congestion bookkeeping (per port, centi-units)} *)

val port_capacity : t -> int -> int
val set_port_capacity : t -> int -> int -> unit

val reserved : t -> int -> int
(** total committed flow size on an outgoing port *)

val reserve : t -> int -> int -> unit
val release : t -> int -> int -> unit

val remaining : t -> int -> int

val waiters : t -> int -> int
(** number of flows currently blocked on entering a port *)

val add_waiter : t -> int -> unit
val remove_waiter : t -> int -> unit

val chain_ok : t -> int -> int
(** 1 when this node's committed rule is part of an unbroken chain of
    same-version commits reaching the egress (consecutive-DL extension) *)

val set_chain_ok : t -> int -> int -> unit

(** {2 Two-phase-commit rule bank (§11)} *)

val tagged_port : t -> int -> int
val tagged_version : t -> int -> int
val stamp_tag : t -> int -> int
(** tag the ingress stamps into outgoing packets (0 = untagged) *)

val set_tagged_port : t -> int -> int -> unit
val set_tagged_version : t -> int -> int -> unit
val set_stamp_tag : t -> int -> int -> unit

(** {2 Misc per-flow helpers} *)

val cleaned : t -> int -> int
(** 1 when a cleanup already released this flow's reservation here *)

val set_cleaned : t -> int -> int -> unit

val ufm_sent : t -> int -> int
(** dedup flag so the ingress reports one UFM per version *)

val set_ufm_sent : t -> int -> int -> unit
