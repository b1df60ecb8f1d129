(** Binary min-heap of timestamped events, flat-array layout.

    Events are ordered first by time, then by a monotonically increasing
    sequence number, so that two events scheduled for the same instant are
    delivered in scheduling order (stable FIFO tie-breaking).  This is
    essential for deterministic simulation replays.

    The implementation stores entry fields in parallel flat arrays
    (structure-of-arrays): ordering comparisons load from an unboxed
    [float array] and sifting moves only immediates (the payloads stay
    put in a slot table).  A push sifts up.  A pop or {!remove_seq}
    removes bottom-up: the hole descends to a leaf through the earlier
    child at each level, chosen from the two children's times without a
    branch, and the heap's last entry fills the leaf and sifts up.
    Delivery order is byte-identical to the original boxed heap, kept in
    the test suite as a differential-testing oracle.

    The heap is payload-agnostic: {!Sim} stores each event as it is —
    a timer's closure or a netsim frame record — and a pending payload
    stays readable through {!fold}, so what an event {e is} needs no
    second description beside it. *)

type 'a t

val create : unit -> 'a t

(** [push heap ~time event] inserts [event] to fire at [time]. *)
val push : 'a t -> time:float -> 'a -> unit

(** [pop heap] removes and returns the earliest event, or [None] when the
    heap is empty. *)
val pop : 'a t -> (float * 'a) option

(** [min_time heap] is the timestamp of the earliest event.  With
    {!take_min} it is the allocation-free form of {!pop}
    that the simulator's step loop uses, after an {!is_empty} check.
    Raises [Invalid_argument] on an empty heap. *)
val min_time : 'a t -> float

(** [take_min heap] removes the earliest event and returns its payload.
    Raises [Invalid_argument] on an empty heap. *)
val take_min : 'a t -> 'a

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [clear heap] drops all pending events.  The backing arrays keep
    their grown capacity (see {!compact}). *)
val clear : 'a t -> unit

(** Current backing-array capacity in entries (grows geometrically,
    never shrinks except through {!compact}). *)
val capacity : 'a t -> int

(** [compact heap] shrinks the backing arrays to the smallest
    power-of-two capacity holding the current entries, releasing the
    slack left behind by a burst.  Content and delivery order are
    unchanged.  O(n); call at quiesce points (the soak monitor runs it
    between cycles), not on hot paths. *)
val compact : 'a t -> unit

(** [fold heap ~init ~f] folds over every pending entry (time, sequence
    number and payload) in unspecified (heap-internal) order. *)
val fold :
  'a t -> init:'acc -> f:('acc -> time:float -> seq:int -> payload:'a -> 'acc) -> 'acc

(** [remove_seq heap seq] removes the entry with the given sequence
    number, returning its time and payload.  O(n); meant for the model
    checker's choice-point layer, not for hot paths. *)
val remove_seq : 'a t -> int -> (float * 'a) option
