let () =
  Alcotest.run "p4update"
    [
      ("dessim", Test_dessim.suite);
      ("graph", Test_graph.suite);
      ("topologies", Test_topologies.suite);
      ("graphml", Test_graphml.suite);
      ("stats-traffic", Test_stats_traffic.suite);
      ("svg", Test_svg.suite);
      ("p4rt", Test_p4rt.suite);
      ("netsim", Test_netsim.suite);
      ("segment-label", Test_segment_label.suite);
      ("verify", Test_verify.suite);
      ("congestion", Test_congestion.suite);
      ("controller", Test_controller.suite);
      ("sl-update", Test_sl_update.suite);
      ("dl-update", Test_dl_update.suite);
      ("consistency", Test_consistency.suite);
      ("resilience", Test_resilience.suite);
      ("chaos", Test_chaos.suite);
      ("consecutive-dl", Test_consecutive_dl.suite);
      ("two-phase", Test_two_phase.suite);
      ("inconsistency", Test_inconsistency.suite);
      ("switch-fuzz", Test_switch_fuzz.suite);
      ("baselines", Test_baselines.suite);
      ("ez-internals", Test_ez_internals.suite);
      ("obs", Test_obs.suite);
      ("observability", Test_observability.suite);
      ("mc", Test_mc.suite);
      ("scale", Test_scale.suite);
      ("traffic", Test_traffic.suite);
      ("soak", Test_soak.suite);
      ("intent", Test_intent.suite);
      ("run", Test_run.suite);
      ("figures", Test_figures.suite);
    ]
