(* Fixed-seed chaos sweep (the [@chaos] alias, also run by [dune runtest]):
   every scenario of {!Harness.Chaos.all_scenarios} under 20 fixed seeds,
   with both-plane faults and up to two element failures.  Fails loudly on
   any invariant violation, non-convergence, or a seed that does not
   reproduce its own trace hash. *)

let seeds = List.init 20 (fun i -> i + 1)

let run ~scenario ~seed =
  Harness.Chaos.run ~faults:Harness.Run_config.default_faults ~seed scenario

let () =
  let failures = ref 0 in
  List.iter
    (fun scenario ->
      List.iter
        (fun seed ->
          let r = run ~scenario ~seed in
          let r' = run ~scenario ~seed in
          let deterministic = r.Harness.Chaos.r_trace_hash = r'.Harness.Chaos.r_trace_hash in
          let good = Harness.Chaos.ok r && deterministic in
          if not good then begin
            incr failures;
            print_endline (Harness.Chaos.report_line r);
            if not deterministic then
              Printf.printf "  NONDETERMINISTIC: rerun hash %08x <> %08x\n%!"
                r'.Harness.Chaos.r_trace_hash r.Harness.Chaos.r_trace_hash;
            List.iter
              (fun v ->
                Printf.printf "  t=%.1fms flow=%d: %s\n%!" v.Harness.Chaos.v_time
                  v.Harness.Chaos.v_flow v.Harness.Chaos.v_what)
              r.Harness.Chaos.r_violations
          end
          else print_endline (Harness.Chaos.report_line r))
        seeds)
    Harness.Chaos.all_scenarios;
  if !failures > 0 then begin
    Printf.printf "chaos sweep: %d failing runs\n%!" !failures;
    exit 1
  end
  else print_endline "chaos sweep: all runs ok"
