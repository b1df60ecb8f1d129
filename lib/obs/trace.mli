(** Cross-layer trace sink.

    A single global sink (installed/uninstalled explicitly) collects
    span begin/end pairs and instant events stamped with {e simulated}
    time.  When no sink is installed every entry point is a cheap
    [None] check, so the instrumented hot paths cost one load + branch
    — the "no-op when disabled" guarantee DESIGN.md documents.

    Causality: spans carry an optional parent span id.  Layers that
    cannot thread ids through function arguments (wire messages have a
    fixed byte format) park span ids in the sink's anchor table under a
    string key such as ["uim:<flow>:<ver>:<node>"] and the receiving
    side picks them up.

    Determinism: the sink never consumes simulator randomness and never
    schedules events; timestamps come from a [clock] closure that reads
    [Dessim.Sim.now].  Two same-seed runs therefore produce
    byte-identical JSONL — a property the test suite asserts. *)

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

val create : ?exclude:string list -> ?clock:(unit -> float) -> unit -> sink
(** [exclude] (default [["sim"]]) lists categories dropped at record
    time; [clock] supplies timestamps (default: constant 0). *)

val install : sink -> unit
val uninstall : unit -> unit
val enabled : unit -> bool

val set_clock : (unit -> float) -> unit
(** Swap the installed sink's clock; no-op when none is installed. *)

val on_event : (event -> unit) -> unit
(** Register a listener on the installed sink, called synchronously on
    every recorded event; no-op when none is installed. *)

(** {2 Recording} — all no-ops (and {!span_begin} returns 0) when no
    sink is installed or the category is excluded. *)

val span_begin :
  ?parent:int -> ?attrs:attr list -> ?node:int -> cat:string -> string -> int
(** Returns the new span id, or 0 when not recorded. *)

val span_end : ?attrs:attr list -> int -> unit
(** Safe on id 0 (does nothing). *)

val instant :
  ?parent:int -> ?attrs:attr list -> ?node:int -> cat:string -> string -> unit

val with_span :
  ?parent:int ->
  ?attrs:attr list ->
  ?node:int ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** Brackets [f] with a span; an escaping exception ends the span with
    an [("error", true)] attribute and re-raises. *)

(** {2 Anchors} — span handoff across wire messages.  All no-ops
    (getters return 0) when no sink is installed. *)

val anchor_set : string -> int -> unit
(** Ignores id 0. *)

val anchor_get : string -> int
val anchor_pop : string -> int

val anchor_count : unit -> int
(** Outstanding anchors in the installed sink: a leak probe.  Every
    span handed off across the wire should be popped by a terminal
    handler, so a quiesced plane leaves this at zero. *)

(** {2 Introspection and export} *)

val events : sink -> event list
(** Oldest first. *)

val to_jsonl : sink -> string
(** One compact JSON object per event, oldest first. *)

val to_chrome : ?pretty:bool -> sink -> string
(** Chrome trace-event format (the JSON array flavour Perfetto and
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
