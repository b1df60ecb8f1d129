(** Always-on flight recorder: a fixed-capacity ring of compact trace
    events that survives at scale-engine speed.

    The {!Trace} sink allocates one boxed event per record, which is why
    the scale and soak harnesses run with it disabled — and why the
    exact runs where an invariant violation or abort storm mattered most
    used to leave no forensic record.  The recorder keeps the last N
    events in struct-of-arrays form, so recording is a handful of array
    stores: no per-event allocation beyond the slots preallocated at
    {!create} time, and a single load + branch when no recorder is
    installed.

    On a {!trigger} (invariant violation, abort, give-up, stuck update,
    leak reading, SLO breach) the ring's current window is dumped as a
    Perfetto-loadable Chrome trace-event JSON file — the plane's black
    box.  The dump is a list of {!Trace.Instant}s (one per ring slot in
    category ["recorder"], then the trigger marker) written by
    {!Trace.to_chrome}.  Dumps are capped per recorder so an abort storm cannot flood
    the incident directory; triggers beyond the cap still count.

    Determinism: the recorder never consumes simulator randomness and
    never schedules events; timestamps arrive explicitly from call
    sites that already hold the simulated clock.  Two same-seed runs
    produce byte-identical snapshots — asserted by the test suite. *)

type t

(** {2 Event kinds} — dense int codes so the ring stays unboxed.  The
    [a]/[b] payload fields are kind-specific (version, port, peer
    node, ...); see the codes' doc strings in the implementation. *)

val k_inject : int
val k_deliver : int
val k_push : int
val k_report : int
val k_retransmit : int
val k_reroute : int
val k_resync : int
val k_abort : int
val k_give_up : int
val k_topo : int
val k_violation : int
val k_leak : int
val k_stuck : int
val k_slo : int

val create : ?capacity:int -> ?incident_dir:string -> ?max_incidents:int -> unit -> t
(** Ring of [capacity] slots (default 8192; < 1 raises
    [Invalid_argument]).  [incident_dir] enables snapshot dumps on
    trigger, at most [max_incidents] (default 32) per recorder. *)

(** {2 The global recorder}

    Unlike a {!Trace.sink}, which belongs to the simulation that adopts
    it, the recorder is installed process-wide.  It is the last piece
    of process-global run state, so only the process edge installs it:
    the CLI (one fresh recorder per scale, soak or chaos run), the
    benchmark driver ([perfbench/episode.ml]) and tests, never the
    library ([test/lint_globals.py] enforces this).  Moving it into the
    simulation waits for a change that may edit the benchmark. *)

val install : t -> unit
val uninstall : unit -> unit
val get : unit -> t option

val note : now:float -> kind:int -> node:int -> flow:int -> a:int -> b:int -> unit
(** The hot-path entry point: one load + branch when no recorder is
    installed, a few array stores when one is.  [node = -1] means
    controller/global; [flow = -1] unknown. *)

val trigger : now:float -> reason:string -> string option
(** Fire a trigger on the installed recorder: record the trigger event
    in the ring, then — when an incident directory is configured and
    the per-run cap is not exhausted — dump the window as
    [incident-<seq>-<reason>.json].  Returns the written path, if
    any; [None] when no recorder is installed. *)

(** {2 Introspection} *)

type event = {
  ev_ts : float;
  ev_kind : int;
  ev_node : int;
  ev_flow : int;
  ev_a : int;
  ev_b : int;
}

val events : t -> event list
(** Ring contents in chronological order (oldest retained first). *)

val total : t -> int
(** Events ever recorded (including overwritten ones). *)

val dropped : t -> int
(** [max 0 (total - capacity)]. *)

val triggers : t -> int
val incidents : t -> int
(** Snapshot files actually written. *)

val clear : t -> unit
