(* Pins of the paper's figure runs and the ablation text.

   Every value below is a deterministic function of the seeds; a change
   to the scenario driver, the worlds it builds or the workloads it draws
   shows up here as a changed sample.  Times are in ms. *)

module E = Harness.Experiments
module S = Harness.Scenarios

let ms = Alcotest.(check (float 1e-6))
let samples = Alcotest.(check (list (float 1e-6)))

(* --- Fig. 2 ------------------------------------------------------------ *)

let test_fig2 () =
  let check (r : E.fig2_result) ~sent ~v1 ~v4 ~duplicated ~max_copies ~lost =
    let name what = Printf.sprintf "%s %s" r.E.f2_system what in
    Alcotest.(check int) (name "sent") sent r.E.f2_sent;
    Alcotest.(check int) (name "v1 arrivals") v1 (List.length r.E.f2_v1_arrivals);
    Alcotest.(check int) (name "v4 arrivals") v4 (List.length r.E.f2_v4_arrivals);
    Alcotest.(check int) (name "duplicated") duplicated r.E.f2_duplicated;
    Alcotest.(check int) (name "worst copies") max_copies r.E.f2_max_copies;
    Alcotest.(check int) (name "lost") lost r.E.f2_lost
  in
  match E.run_fig2 () with
  | [ p4u; ez ] ->
    Alcotest.(check string) "first system" "SL-P4Update" p4u.E.f2_system;
    Alcotest.(check string) "second system" "ez-Segway" ez.E.f2_system;
    check p4u ~sent:88 ~v1:88 ~v4:88 ~duplicated:0 ~max_copies:1 ~lost:0;
    check ez ~sent:88 ~v1:453 ~v4:77 ~duplicated:25 ~max_copies:21 ~lost:11
  | rs -> Alcotest.failf "expected 2 systems, got %d" (List.length rs)

(* --- Fig. 4 ------------------------------------------------------------ *)

let test_fig4 () =
  let r = E.run_fig4 ~runs:3 in
  samples "P4Update" [ 277.852588; 264.142371; 342.276854 ] r.E.f4_p4update;
  samples "ez-Segway" [ 551.824593; 553.363573; 419.956967 ] r.E.f4_ez;
  ms "speedup" (Harness.Stats.mean r.E.f4_ez /. Harness.Stats.mean r.E.f4_p4update)
    r.E.f4_speedup

(* --- Fig. 7 ------------------------------------------------------------ *)

let fig7_pins =
  [
    ( "7a",
      [ 417.742846; 742.212539; 973.883941 ],
      [ 529.684919; 781.644859; 989.295536 ],
      [ 735.471095; 1047.464034; 1288.027527 ] );
    ("7b", [ 36.119956 ], [ 41.726986 ], [ 69.893505 ]);
    ( "7c",
      [ 224.111128; 502.845854; 240.489246 ],
      [ 301.732487; 603.249150; 320.311062 ],
      [ 413.028922; 720.003712; 431.607498 ] );
    ( "7d",
      [ 182.237684; 278.569228; 225.534888 ],
      [ 188.237684; 287.569228; 236.034888 ],
      [ 371.863412; 504.161850; 497.462417 ] );
    ( "7e",
      [ 346.073038; 579.831113; 846.658117 ],
      [ 358.073038; 591.831113; 858.658117 ],
      [ 452.903270; 764.896209; 1005.459703 ] );
    ( "7f",
      [ 63.392015; 62.107782 ],
      [ 72.392015; 71.242099 ],
      [ 150.272487; 108.638840 ] );
  ]

let test_fig7 () =
  let scenarios = E.fig7_scenarios () in
  Alcotest.(check (list string)) "scenario ids"
    (List.map (fun (id, _, _, _) -> id) fig7_pins)
    (List.map (fun sc -> sc.E.f7_id) scenarios);
  List.iter2
    (fun sc (id, p4u, ez, central) ->
      let r = E.run_fig7 ~runs:3 sc in
      Alcotest.(check (list string)) (id ^ " systems")
        (List.map S.system_name S.all_systems)
        (List.map (fun (s, _) -> S.system_name s) r.E.f7_samples);
      samples (id ^ " P4Update") p4u (List.assoc S.P4u r.E.f7_samples);
      samples (id ^ " ez-Segway") ez (List.assoc S.Ez r.E.f7_samples);
      samples (id ^ " Central") central (List.assoc S.Central r.E.f7_samples))
    scenarios fig7_pins

(* --- Ablations --------------------------------------------------------- *)

let sl_vs_dl_text =
  "Single flow (Exp(100 ms) straggler installs), mean update time:\n\
  \  synthetic  SL   850.6 ms   DL   711.3 ms   SL vs DL  +19.6%   (paper: SL slower)\n\
  \  b4         SL   462.7 ms   DL   322.5 ms   SL vs DL  +43.5%   (paper: SL slower)\n\
  \  internet2  SL   688.2 ms   DL   590.9 ms   SL vs DL  +16.5%   (paper: SL slower)\n\
   Multiple flows (congested), mean completion of the last flow:\n\
  \  fat-tree   SL    37.4 ms   DL    37.4 ms   SL vs DL   +0.0%   (paper: SL faster)\n\
  \  b4         SL   256.6 ms   DL   256.6 ms   SL vs DL   +0.0%   (paper: SL faster)\n\
  \  internet2  SL    58.7 ms   DL    58.7 ms   SL vs DL   +0.0%   (paper: SL faster)\n"

let test_sl_vs_dl () =
  Alcotest.(check string) "SL vs DL text" sl_vs_dl_text
    (Harness.Ablation.render_sl_vs_dl ~runs:3 ())

(* The sweep's default-delay row is the congested Internet2 run at the
   default 0.25 ms resubmission delay (with its schedulability redraw). *)
let test_resubmit_default_row () =
  let prefix = "  resubmit  0.25 ms -> completion" in
  let text = Harness.Ablation.render_resubmit_sweep ~runs:3 () in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text) with
  | Some l ->
    let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
    Alcotest.(check (pair (float 1e-9) int))
      "0.25 ms row" (58.7, 2)
      (Scanf.sscanf rest " %f ms (n=%d)" (fun mean n -> (mean, n)))
  | None -> Alcotest.failf "no %S row in:\n%s" prefix text

let suite =
  [
    Alcotest.test_case "fig2 counts pinned" `Quick test_fig2;
    Alcotest.test_case "fig4 samples pinned" `Quick test_fig4;
    Alcotest.test_case "fig7 samples pinned" `Quick test_fig7;
    Alcotest.test_case "sl-vs-dl ablation text pinned" `Quick test_sl_vs_dl;
    Alcotest.test_case "resubmit sweep default row = gated run" `Quick
      test_resubmit_default_row;
  ]
