(** One runner per evaluation artifact of the paper (see DESIGN.md §3).

    Every function is deterministic given its seed(s) and returns plain
    data; {!render} helpers turn results into the text the bench harness
    prints. *)

(** {2 Fig. 2 — inconsistent (reordered) updates} *)

type fig2_result = {
  f2_system : string;
  f2_sent : int;                       (** packets injected at v0 *)
  f2_v1_arrivals : (float * int) list; (** time, sequence id at v1 *)
  f2_v4_arrivals : (float * int) list; (** time, sequence id at v4 *)
  f2_duplicated : int;                 (** distinct seqs seen more than once at v1 *)
  f2_max_copies : int;                 (** worst-case copies of one seq at v1 *)
  f2_lost : int;                       (** seqs never delivered at v4 *)
}

(** [run_fig2 cfg] runs the §4.1 scenario for SL-P4Update and ez-Segway
    with [cfg.seed]. *)
val run_fig2 : Run_config.t -> fig2_result list

(** {2 Fig. 4 — skip-ahead over an ongoing update} *)

type fig4_result = {
  f4_p4update : float list;  (** completion of U3, 30 runs *)
  f4_ez : float list;
  f4_speedup : float;        (** mean(ez) / mean(p4update) — paper: ≈ 4 *)
}

(** [run_fig4 cfg] runs [cfg.runs] seeded pairs. *)
val run_fig4 : Run_config.t -> fig4_result

(** {2 Fig. 7 — total update time CDFs} *)

type fig7_scenario = {
  f7_id : string;       (** "7a" .. "7f" *)
  f7_title : string;
  f7_setup : Scenarios.setup;
}

val fig7_scenarios : unit -> fig7_scenario list

type fig7_result = {
  f7_scenario : fig7_scenario;
  f7_samples : (Scenarios.system * float list) list;
}

(** [run_fig7 cfg scenario] runs all three systems, [cfg.runs] seeds
    each from 1000 ([cfg.seed] is not used). *)
val run_fig7 : Run_config.t -> fig7_scenario -> fig7_result

(** {2 Phase breakdown — where a traced run's completion time goes} *)

type phase_result = {
  pb_scenario : fig7_scenario;
  pb_system : Scenarios.system;
  pb_seed : int;
  pb_completion_ms : float;
  pb_rows : Traced.phase_row list;
}

(** [run_phase_breakdown cfg scenario system] runs seed [cfg.seed] of a
    Fig. 7 scenario under a trace sink and folds the span tree into
    per-update phase rows (prep / control-plane flight / data-plane
    propagation / verification / ack).  Baseline systems produce no rows: only P4Update is
    span-instrumented. *)
val run_phase_breakdown :
  Run_config.t -> fig7_scenario -> Scenarios.system -> phase_result

val render_phase_breakdown : phase_result -> string

(** {2 Fig. 8 — control-plane preparation time ratio} *)

type fig8_row = {
  f8_topology : string;
  f8_nodes : int;
  f8_edges : int;
  f8_p4u_ms : float;   (** total preparation time, this repo's P4Update controller *)
  f8_ez_ms : float;    (** total preparation time, ez-Segway *)
  f8_ratio : float;    (** p4u / ez — Fig. 8 bar value *)
}

(** [random_updates rng graph ~count] draws [count] random (shortest,
    2nd-shortest) path pairs — the updates Fig. 8 prepares. *)
val random_updates : Random.State.t -> Topo.Graph.t -> count:int -> (int list * int list) list

(** ez-Segway's request for one drawn update (size 100, pair-derived id). *)
val ez_request : int list * int list -> Baselines.Ez_segway.update_request

(** [run_fig8 cfg] measures the preparation runtime over
    [cfg.iterations] random updates on the four WANs of Fig. 8, in the
    congestion-aware variant when [cfg.congestion]. *)
val run_fig8 : Run_config.t -> fig8_row list

(** {2 Rendering} *)

val render_fig2 : fig2_result list -> string
val render_fig4 : fig4_result -> string
val render_fig7 : fig7_result -> string
val render_fig8 : congestion:bool -> fig8_row list -> string
