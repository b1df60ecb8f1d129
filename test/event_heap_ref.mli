(** Reference binary min-heap of timestamped events (boxed entries).

    This is the original [Event_heap] implementation, kept as the
    behavioural oracle for the flat-array heap that replaced it: the
    differential property tests ([test_scale.ml]) drive both through
    identical operation sequences and require identical pop order,
    candidate sets and [remove_seq] results. *)

type 'a t

val create : unit -> 'a t

(** [push heap ~time event] inserts [event] to fire at [time]. *)
val push : 'a t -> time:float -> 'a -> unit

(** [pop heap] removes and returns the earliest event, or [None] when the
    heap is empty. *)
val pop : 'a t -> (float * 'a) option

(** [peek_time heap] is the timestamp of the earliest event without
    removing it. *)
val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [clear heap] drops all pending events. *)
val clear : 'a t -> unit

(** [fold heap ~init ~f] folds over every pending entry (time, sequence
    number and payload) in unspecified (heap-internal) order. *)
val fold :
  'a t -> init:'acc -> f:('acc -> time:float -> seq:int -> payload:'a -> 'acc) -> 'acc

(** [remove_seq heap seq] removes the entry with the given sequence
    number, returning its time and payload.  O(n); meant for the model
    checker's choice-point layer, not for hot paths. *)
val remove_seq : 'a t -> int -> (float * 'a) option
