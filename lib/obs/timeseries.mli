(** Rolling SLO time-series over simulated time.

    Long-horizon harnesses (Soak, Scale) used to report one end-of-run
    summary: a latency spike in cycle 3 that recovered by cycle 8 was
    invisible.  A {!t} samples a set of registered probes on a fixed
    simulated-time tick (driven by [Dessim.Sim]'s tick hook) and keeps
    one window per tick, giving per-window trend lines exported as JSONL
    and rendered as a [top]-style text dashboard.

    Determinism: sampling never consumes simulator randomness and never
    schedules events; windows are a pure function of the seed and the
    tick. *)

type t

type window = {
  w_t_ms : float;  (** window end, simulated ms *)
  w_values : (string * float) list;  (** probe output order *)
}

val create : tick_ms:float -> t
(** Raises [Invalid_argument] unless [tick_ms] is finite and positive. *)

(** {2 Probe registration} — duplicate names raise [Invalid_argument].
    A [dist] probe expands to three window columns: [<name>.p50],
    [<name>.p99] and [<name>.n]. *)

val gauge : t -> string -> unit_:string -> (unit -> float) -> unit
(** Sampled instantaneously at each tick (in-flight updates, heap
    footprint). *)

val rate : t -> string -> unit_:string -> (unit -> float) -> unit
(** Reads a cumulative counter and emits the per-second delta over the
    window (pkts/s, aborts/s).  The counter is read once at
    registration to anchor the first delta. *)

val dist : t -> string -> unit_:string -> unit
(** Collects samples pushed via {!observe}; each tick emits windowed
    p50/p99/count and resets. *)

val observe : t -> string -> float -> unit
(** Push one sample into a [dist] probe; no-op for unknown names so
    call sites need not know which probes a harness registered. *)

val tick : t -> now:float -> unit
(** Close the current window at simulated time [now]: sample every
    probe and reset windowed state. *)

(** {2 Reading} *)

val windows : t -> window list
(** Oldest first. *)

(** {2 Exporters} *)

val to_jsonl : window list -> string
(** One flat JSON object per window:
    [{"t_ms": ..., "<probe>": value, ...}].  Takes a bare window list,
    like {!trend_lines}, so a harness result's series exports alone. *)

val trend_lines : ?trail:int -> window list -> string list
(** Trend lines from a bare window list (e.g. the series a harness
    result retains): one ["<name> <latest> |sparkline|"] line per
    metric over the last [trail] (default 64) windows.  Works without
    the {!t} the windows came from, so report printers can run on
    results alone. *)

val render_top : ?trail:int -> ?title:string -> t -> string
(** A [top]-style text dashboard: header plus one line per metric with
    the latest value, unit, and a sparkline over the last [trail]
    (default 48) windows. *)
