(** Discrete-event simulation kernel.

    A simulation owns a virtual clock (milliseconds, [float]), an event heap
    and a deterministic random state.  Events are thunks; scheduling is the
    only way time advances.  The kernel is single-threaded and fully
    deterministic for a given seed and scheduling order.

    A pluggable {e choice-point layer} lets an external policy (the
    [lib/mc] model checker) pick which of the currently-enabled events
    fires next, instead of the heap's (time, seq) FIFO order.  With no
    chooser installed the kernel behaves exactly as before — byte for
    byte. *)

type t

(** Metadata describing what a pending event is, attached at schedule
    time.  [tag_node] is the node whose state the delivery touches
    ([-1] = controller); [tag_flow] is the flow it belongs to ([-1] =
    unknown); [tag_hash] digests the payload so fingerprints can
    distinguish in-flight messages.  Tags never affect default ordering. *)
type tag = private {
  tag_kind : string;
  tag_node : int;
  tag_flow : int;
  tag_hash : int;
}

val tag : kind:string -> node:int -> flow:int -> hash:int -> tag

(** One currently-enabled event presented to a chooser.  [c_seq] is a
    stable identity for the pending event; [c_tag] is [None] for events
    scheduled without a tag (timers, internal callbacks). *)
type candidate = { c_time : float; c_seq : int; c_tag : tag option }

(** A scheduling policy: given the current clock and the non-empty array
    of enabled candidates — sorted by (time, seq), so index [0] is what
    the default FIFO order would deliver — return the index to fire
    next.  Out-of-range indices raise [Invalid_argument]. *)
type chooser = now:float -> candidate array -> int

(** [create ~seed ()] makes an empty simulation with its clock at [0.0]. *)
val create : ?seed:int -> unit -> t

(** Current simulated time in milliseconds. *)
val now : t -> float

(** Random state of this simulation; use it for every stochastic choice so
    runs are reproducible. *)
val rng : t -> Random.State.t

(** [set_chooser t ~window chooser] installs a scheduling policy.  At
    each step, every pending event within [window] ms of the earliest
    one is a candidate; the chooser picks which fires.  Choosing a
    later event models extra delay on the earlier ones, so the clock
    advances to [max now chosen.c_time] and never runs backwards.
    [window] defaults to [0.0] (only same-instant events commute). *)
val set_chooser : ?window:float -> t -> chooser -> unit

val clear_chooser : t -> unit

(** [chooser_installed t] is true between [set_chooser] and
    [clear_chooser].  Layers that tag events may use it to skip tag
    computation on the default path. *)
val chooser_installed : t -> bool

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].  Raises
    [Invalid_argument] if [delay] is negative or not finite. *)
val schedule : ?tag:tag -> t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time], which must not
    be in the simulated past. *)
val schedule_at : ?tag:tag -> t -> time:float -> (unit -> unit) -> unit

(** [run t] processes events until the queue is empty or the optional
    [until] horizon is passed (events scheduled later stay pending).
    Returns the number of events processed.  A bounded run finishes with
    the clock advanced to [until] (when that is ahead of the last
    event), firing the observability ticks in between, so fixed-width
    {!set_tick} windows cover the whole bounded interval. *)
val run : ?until:float -> t -> int

(** [step t] processes the single earliest event (or, with a chooser
    installed, the chosen one).  Returns [false] when no event is
    pending. *)
val step : t -> bool

(** Kernel throughput counters: [st_events] events dispatched since
    creation (or the last {!reset_stats}), [st_wall_s] monotonic
    wall-clock seconds (see {!Wallclock}) spent inside {!run}, and their
    ratio [st_events_per_s] ([0.] before any timed run).  The scale
    engine and the bench harness report these as events/sec. *)
type stats = { st_events : int; st_wall_s : float; st_events_per_s : float }

val stats : t -> stats
val reset_stats : t -> unit

val pending : t -> int

(** [compact t] shrinks the event heap's backing storage to fit its
    current pending set (see {!Event_heap.compact}).  Content and
    delivery order are unchanged; run it at quiesce points, not on hot
    paths. *)
val compact : t -> unit

(** [set_tick t ~every_ms cb] installs an observability tick: [cb ~now]
    fires (from inside event dispatch, not off the heap) every time the
    clock crosses a multiple of [every_ms], with [now] pinned to the
    boundary it crossed.  A dispatch that jumps several periods fires
    every intermediate tick in order.  The callback must not schedule
    events or consume simulator randomness; the kernel never does either
    on its behalf, so installing a tick cannot change a run's event
    schedule, chaos hash or mc fingerprint.  Raises [Invalid_argument]
    if [every_ms] is not positive and finite. *)
val set_tick : t -> every_ms:float -> (now:float -> unit) -> unit

val clear_tick : t -> unit

(** [fold_pending t ~init ~f] folds over the pending events' times and
    tags, in unspecified order.  Used to fingerprint the in-flight
    message multiset. *)
val fold_pending :
  t -> init:'acc -> f:('acc -> time:float -> tag:tag option -> 'acc) -> 'acc

(** Exponential sample with the given [mean], from the simulation RNG. *)
val exponential : t -> mean:float -> float

(** Truncated-at-zero normal sample (Box–Muller). *)
val normal : t -> mean:float -> stddev:float -> float

(** Uniform float in \[0, bound). *)
val uniform : t -> bound:float -> float

(** Uniform int in \[0, bound). *)
val uniform_int : t -> bound:int -> int
