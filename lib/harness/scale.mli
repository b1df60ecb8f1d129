(** Scale engine (§9-style stress): thousands of concurrent flow updates
    over a Topology Zoo WAN, driven by a Poisson arrival process on the
    discrete-event kernel — an open {!Run} over a rotating population.

    Each arrival burst rotates a set of distinct active flows onto their
    next precomputed alternative path, prepares the burst through
    {!P4update.Controller.prepare_batch} (shared traversal state) and
    pushes it; a fraction of bursts churns the flow population, and
    Thm. 1–4 invariant probes run on a sampled subset of bursts.  Adding
    [audit] races {!Traffic} probes against the bursts. *)

(** 1000 updates over 200 flows, 5 ms mean inter-burst, bursts of 8,
    5% per-burst churn, probe every 25 bursts, 300 s horizon, no audit,
    no faults. *)
val default_workload : Run.workload

(** {!Run.alt_paths}, the rotation's path set. *)
val alt_paths : Topo.Graph.t -> src:int -> dst:int -> int list array option

(** Three lines: completion, percentiles and probes, kernel throughput.
    Preparation throughput is perfbench's
    [controller.prepare_ns_per_update]. *)
val pp : Format.formatter -> Run.result -> unit
