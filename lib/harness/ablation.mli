(** Ablation studies for the design choices DESIGN.md calls out:
    the §7.5 SL/DL policy and the §8 resubmission cost. *)

(** Forced SL vs forced DL vs the §7.5 policy, on the single-flow
    (straggler) scenarios and on the multi-flow scenarios — reproduces the
    paper's in-text numbers ("SL slower than DL by 31.5% for Synthetic and
    12.5% for B4", "SL improves over DL by 27-39% multi-flow"). *)
val render_sl_vs_dl : runs:int -> unit -> string

(** P4Update completion time on the congested multi-flow scenario as a
    function of the resubmission-loop delay (the BMv2 modification of §8
    reduced this cost). *)
val render_resubmit_sweep : runs:int -> unit -> string
