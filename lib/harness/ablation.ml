let multi topo = Scenarios.multi ~headroom:1.4 topo

(* P4Update's samples over seeds 1000, 1001, ... *)
let sample ~runs ?update_type setup =
  Scenarios.sample ?update_type ~seed:1000 ~runs setup Scenarios.P4u

let pct a b = 100.0 *. ((a /. b) -. 1.0)

(* ------------------------------------------------------------------ *)
(* SL vs DL                                                             *)
(* ------------------------------------------------------------------ *)

let render_sl_vs_dl ~runs () =
  let buf = Buffer.create 1024 in
  let rows ~expect setup_of topos =
    List.iter
      (fun (name, topo) ->
        let setup = setup_of topo in
        let sl = Stats.mean (sample ~runs ~update_type:P4update.Wire.Sl setup) in
        let dl = Stats.mean (sample ~runs ~update_type:P4update.Wire.Dl setup) in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-10s SL %7.1f ms   DL %7.1f ms   SL vs DL %+6.1f%%   (paper: SL %s)\n" name
             sl dl (pct sl dl) expect))
      topos
  in
  Buffer.add_string buf "Single flow (Exp(100 ms) straggler installs), mean update time:\n";
  rows ~expect:"slower" Scenarios.single
    [
      ("synthetic", Topo.Topologies.fig1);
      ("b4", Topo.Topologies.b4);
      ("internet2", Topo.Topologies.internet2);
    ];
  Buffer.add_string buf "Multiple flows (congested), mean completion of the last flow:\n";
  rows ~expect:"faster" multi
    [
      ("fat-tree", fun () -> Topo.Topologies.fat_tree ());
      ("b4", Topo.Topologies.b4);
      ("internet2", Topo.Topologies.internet2);
    ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Resubmission cost sweep                                              *)
(* ------------------------------------------------------------------ *)

let render_resubmit_sweep ~runs () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "P4Update multi-flow completion on Internet2 vs resubmission-loop delay:\n";
  let setup = multi Topo.Topologies.internet2 in
  List.iter
    (fun resubmit_delay_ms ->
      let config = { setup.Scenarios.config with Netsim.resubmit_delay_ms } in
      let samples = sample ~runs { setup with Scenarios.config } in
      Buffer.add_string buf
        (Printf.sprintf "  resubmit %5.2f ms -> completion %7.1f ms (n=%d)\n" resubmit_delay_ms
           (Stats.mean samples) (List.length samples)))
    [ 0.05; 0.25; 1.0; 4.0 ];
  Buffer.contents buf
