(* The §4.1 demonstration (Fig. 2): a controller with an inconsistent
   view pushes updates out of order.  Without verification (ez-Segway)
   the data plane forwards packets in a loop until the missing update
   arrives — duplicating them at v1 and losing them to TTL expiry before
   v4.  P4Update's switches verify locally and simply refuse the
   premature transition.

   Run with: dune exec examples/inconsistent_controller.exe *)

let () =
  print_endline "Reproducing the paper's Fig. 2 scenario:";
  print_endline "  (a) v0->v1->v2->v3->v4   initial configuration";
  print_endline "  (b) v2->v4               pushed late (delayed in the control plane)";
  print_endline "  (c) v0->v3->v1->v2->v4   pushed first, computed against the (b) view";
  print_endline "";
  let results = Harness.Experiments.run_fig2 () in
  print_string (Harness.Experiments.render_fig2 results);
  print_endline "";
  List.iter
    (fun r ->
      let open Harness.Experiments in
      Printf.printf "%s timeline at v1 (first 6 and last 3 arrivals):\n" r.f2_system;
      let show (t, seq) = Printf.printf "    t=%7.2f ms  seq %d\n" t seq in
      let arr = r.f2_v1_arrivals in
      List.iteri (fun i x -> if i < 6 then show x) arr;
      if List.length arr > 9 then print_endline "    ...";
      List.iteri (fun i x -> if i >= List.length arr - 3 then show x) arr)
    results
