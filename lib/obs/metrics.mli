(** Named counter registry.

    A registry is a flat name -> counter table.  Lookup by name is
    idempotent ([counter r "x"] twice returns the same counter), and hot
    paths are expected to hoist the counter out of the loop —
    incrementing a counter handle is a single field mutation.  It holds
    only what something reads: the network's [net.*] counters, the
    controller's [recovery.*], the traffic engine's [traffic.injected]
    and the switches' [p4rt.parser.errors]. *)

type counter

type t

val create : unit -> t

val counter : t -> string -> counter
(** Lookup-or-create. *)

val incr : counter -> unit
val count : counter -> int

val get_count : t -> string -> int
(** Counter value by name; 0 if absent. *)
