(** Cross-layer trace sink.

    A sink belongs to one simulation: [Dessim.Sim.create ~trace] adopts
    it ({!adopt}), and from then on it collects span begin/end pairs and
    instant events stamped with that simulation's {e simulated} clock.
    Every layer reads the sink from its own simulation, so two traced
    worlds side by side record into two sinks.  An untraced simulation
    has no sink, and the instrumented hot paths cost one field load +
    branch — the "no-op when disabled" guarantee DESIGN.md documents.

    Causality: spans carry an optional parent span id.  Layers that
    cannot thread ids through function arguments (wire messages have a
    fixed byte format) park span ids in the sink's anchor table under a
    (kind, flow, version, node) key and the receiving side picks them
    up.

    Determinism: the sink never consumes simulator randomness and never
    schedules events; timestamps come from the adopting simulation's
    clock.  Two same-seed runs therefore produce byte-identical JSONL —
    a property the test suite asserts. *)

type attr = string * Json.t

type span_info = {
  id : int;
  parent : int;  (** 0 = no parent *)
  name : string;
  cat : string;
  node : int;  (** -1 = controller / global *)
  ts : float;  (** simulated ms *)
  attrs : attr list;
}

type event =
  | Span_begin of span_info
  | Span_end of { id : int; ts : float; attrs : attr list }
  | Instant of {
      name : string;
      cat : string;
      node : int;
      ts : float;
      parent : int;
      attrs : attr list;
    }

type sink

val create : ?exclude:string list -> unit -> sink
(** [exclude] (default [["sim"]]) lists categories dropped at record
    time.  Events are stamped 0 until the sink is adopted. *)

val adopt : sink -> clock:(unit -> float) -> unit
(** Stamp every later event with [clock ()].  [Dessim.Sim.create ~trace]
    calls it once with its own clock; a sink that already has a clock
    raises [Invalid_argument], so one sink never mixes two simulations. *)

(** {2 Recording} — a category in the sink's [exclude] list records
    nothing (and {!span_begin} returns 0). *)

val span_begin :
  sink -> ?parent:int -> ?attrs:attr list -> ?node:int -> cat:string -> string -> int
(** Returns the new span id, or 0 when not recorded. *)

val span_end : sink -> ?attrs:attr list -> int -> unit
(** Safe on id 0 (does nothing). *)

val instant :
  sink -> ?parent:int -> ?attrs:attr list -> ?node:int -> cat:string -> string -> unit

val with_span :
  sink ->
  ?parent:int ->
  ?attrs:attr list ->
  ?node:int ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** Brackets [f] with a span; an escaping exception ends the span with
    an [("error", true)] attribute and re-raises. *)

(** {2 Anchors} — span handoff across wire messages, keyed by the
    message kind, flow, version and the node ([-1], the default, for an
    update's root span). *)

type anchor = Update | Uim | Unm | Ufm

val anchor_set : sink -> ?node:int -> anchor -> flow:int -> version:int -> int -> unit
(** Ignores id 0. *)

val anchor_get : sink -> ?node:int -> anchor -> flow:int -> version:int -> int
(** 0 when nothing is anchored under the key. *)

val anchor_pop : sink -> ?node:int -> anchor -> flow:int -> version:int -> int
(** {!anchor_get}, and the key is removed. *)

(** {2 Introspection and export} *)

val events : sink -> event list
(** Oldest first. *)

val to_jsonl : sink -> string
(** One compact JSON object per event, oldest first. *)

val to_chrome : ?pretty:bool -> event list -> string
(** [to_chrome evs] writes [evs] (typically [events sink]) in Chrome
    trace-event format (the JSON array flavour Perfetto and
    chrome://tracing both load).  Simulated ms map to trace
    microseconds; node [i] becomes tid [i+1] on pid 0 with the
    controller on tid 0.  Parent links that cross threads are expressed
    as flow events so Perfetto draws the causal arrows between lanes;
    unterminated spans export as instants so they stay visible. *)

(** {2 Attribute builders} *)

val flow : int -> attr
val version : int -> attr
val str : string -> string -> attr
val int : string -> int -> attr
val float : string -> float -> attr
