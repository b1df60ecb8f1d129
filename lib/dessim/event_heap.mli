(** Binary min-heap of timestamped events, flat-array layout.

    Events are ordered first by time, then by a monotonically increasing
    sequence number, so that two events scheduled for the same instant are
    delivered in scheduling order (stable FIFO tie-breaking).  This is
    essential for deterministic simulation replays.

    The implementation stores entry fields in parallel flat arrays
    (structure-of-arrays): ordering comparisons load from an unboxed
    [float array] and steady-state push/pop allocates nothing, which is
    what lets the scale engine sustain millions of events per second.
    Delivery order is byte-identical to the original boxed heap, kept in
    the test suite as a differential-testing oracle. *)

(** Optional metadata attached to an event at push time.  Tags never
    affect ordering; they exist so a scheduling policy (the [lib/mc]
    model checker) can recognise what a pending event *is*: the kind of
    delivery, the node whose state it touches ([-1] = controller), the
    flow it belongs to ([-1] = unknown), and a digest of the payload. *)
type tag = { tag_kind : string; tag_node : int; tag_flow : int; tag_hash : int }

type 'a t

val create : unit -> 'a t

(** [push heap ~time event] inserts [event] to fire at [time]. *)
val push : ?tag:tag -> 'a t -> time:float -> 'a -> unit

(** [pop heap] removes and returns the earliest event, or [None] when the
    heap is empty. *)
val pop : 'a t -> (float * 'a) option

(** [peek_time heap] is the timestamp of the earliest event without
    removing it. *)
val peek_time : 'a t -> float option

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

(** [fold heap ~init ~f] folds over every pending entry in unspecified
    (heap-internal) order. *)
val fold :
  'a t -> init:'acc -> f:('acc -> time:float -> seq:int -> tag:tag option -> 'acc) -> 'acc

(** [remove_seq heap seq] removes the entry with the given sequence
    number, returning its time, tag and payload.  O(n); meant for the
    model checker's choice-point layer, not for hot paths. *)
val remove_seq : 'a t -> int -> (float * tag option * 'a) option
