(** Discrete-event simulation kernel.

    A simulation owns a virtual clock (milliseconds, [float]), an event heap
    and a deterministic random state.  Scheduling is the only way time
    advances.  The kernel is single-threaded and fully deterministic for
    a given seed and scheduling order.

    An event is a {e timer}, a [unit -> unit] closure ({!schedule}), or
    a {e frame} in flight, plain data ({!schedule_frame}) handed on
    firing to the one frame handler that [Netsim.create] installs.
    Events fire in (time, seq) order.

    A pluggable {e choice-point layer} lets an external policy (the
    [lib/mc] model checker) pick which of the currently-enabled events
    fires next instead, reading each pending frame itself.  With no
    chooser installed the kernel behaves exactly as before — byte for
    byte. *)

type t

(** The network layer's deliveries: over a link, host injection,
    resubmission, switch to controller and controller to switch. *)
type frame_kind = Data | Inject | Resubmit | Ctl_up | Ctl_down

(** A frame in flight.  [node] is the receiving node ([-1] for [Ctl_up]:
    the controller), [port] its ingress, [via] the sender ([-1]: the
    controller). *)
type frame_event = { kind : frame_kind; node : int; port : int; via : int; frame : Bytes.t }

(** One currently-enabled event presented to a chooser.  [c_seq] is a
    stable identity for the pending event; [c_frame] is the frame for a
    delivery and [None] for a timer. *)
type candidate = { c_time : float; c_seq : int; c_frame : frame_event option }

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

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].  Raises
    [Invalid_argument] if [delay] is negative or not finite. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time], which must not
    be in the simulated past. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule_frame t ~delay fr] hands [fr] to the frame handler at
    [now t +. delay].  Raises [Invalid_argument] if [delay] is negative
    or not finite. *)
val schedule_frame : t -> delay:float -> frame_event -> unit

(** [set_frame_handler t h] installs the function every frame event is
    dispatched to.  A simulation carries one network, so a second
    installation raises [Invalid_argument]; a frame firing with none
    installed raises it too. *)
val set_frame_handler : t -> (frame_event -> unit) -> unit

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

(** [fold_pending t ~init ~f] folds over the pending events' times,
    sequence numbers (as in {!candidate}) and frames ([None] for a
    timer), in unspecified order.  Used to fingerprint the in-flight
    message multiset. *)
val fold_pending :
  t ->
  init:'acc ->
  f:('acc -> time:float -> seq:int -> frame:frame_event option -> 'acc) ->
  'acc

(** Exponential sample with the given [mean], from the simulation RNG. *)
val exponential : t -> mean:float -> float

(** Truncated-at-zero normal sample (Box–Muller). *)
val normal : t -> mean:float -> stddev:float -> float

(** Uniform float in \[0, bound). *)
val uniform : t -> bound:float -> float

(** Uniform int in \[0, bound). *)
val uniform_int : t -> bound:int -> int
