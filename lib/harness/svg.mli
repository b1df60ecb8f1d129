(** Minimal SVG renderer for the evaluation figures.

    Produces self-contained SVG files with the same content as the
    paper's plots: empirical CDFs (Figs. 4 and 7), packet-sequence
    scatter plots (Fig. 2) and ratio bar charts (Fig. 8).  No external
    dependency — the files render in any browser. *)

type series = {
  s_label : string;
  s_points : (float * float) list;  (** x, y in data coordinates *)
}

(** [cdf_plot ~title ~x_label series] renders step-style CDFs, one color
    per series, with axes, ticks and a legend. *)
val cdf_plot : title:string -> x_label:string -> series list -> string

(** [scatter_plot ~title ~x_label ~y_label series] renders point clouds
    (used for the Fig. 2 packet-sequence timelines). *)
val scatter_plot : title:string -> x_label:string -> y_label:string -> series list -> string

(** [bar_chart ~title ~y_label bars] renders labelled vertical bars
    (used for the Fig. 8 preparation-time ratios). *)
val bar_chart : title:string -> y_label:string -> (string * float) list -> string

(** Render every figure result into [dir] (created if missing):
    fig2_*.svg, fig4.svg, fig7*.svg, fig8*.svg. *)
val render_fig2 : dir:string -> Experiments.fig2_result list -> unit
val render_fig4 : dir:string -> Experiments.fig4_result -> unit
val render_fig7 : dir:string -> Experiments.fig7_result -> unit
val render_fig8 : dir:string -> congestion:bool -> Experiments.fig8_row list -> unit
