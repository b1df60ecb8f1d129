(* @mc alias: exhaustively model-check the bounded scenarios and prove
   both DESIGN §4b regression pins — the checker must find the historical
   violation the moment its fix is toggled off.  Every verdict line is
   also compared with a pinned string: the explored schedule, state,
   branch-point, pruning and event counts are a pure function of the
   scenarios and of how the checker identifies pending deliveries, so a
   change meant to move none of them must leave every line byte-identical.
   Exit code 1 on any unexpected verdict or moved line.  Runs under
   `dune build @mc` and `dune runtest`. *)

let failed = ref false

let expect what ok line =
  print_endline line;
  if not ok then begin
    failed := true;
    Printf.printf "  FAIL: %s\n" what
  end

let pinned =
  [
    ( "fig2a",
      "mc fig2a            window=1.0ms: verified (exhaustive within window) | \
       schedules=3 states=2 branch-points=5 pruned(visited=1 sleep=0) \
       por-factor=1.00x max-depth=2 events=40" );
    ( "six-skip",
      "mc six-skip         window=0.5ms: verified (exhaustive within window) | \
       schedules=49 states=42 branch-points=272 pruned(visited=35 sleep=0) \
       por-factor=1.00x max-depth=8 events=1198" );
    ( "ruleless-gateway",
      "mc ruleless-gateway window=1.0ms: verified (exhaustive within window) | \
       schedules=4 states=4 branch-points=10 pruned(visited=1 sleep=0) \
       por-factor=1.00x max-depth=3 events=59" );
    ( "stale-label",
      "mc stale-label      window=3.0ms: no violation found (bounds hit) | \
       schedules=3000 states=1984 branch-points=37078 pruned(visited=2996 sleep=0) \
       por-factor=1.00x max-depth=17 events=65482" );
    ( "abort-race",
      "mc abort-race       window=2.0ms: verified (exhaustive within window) | \
       schedules=123 states=79 branch-points=561 pruned(visited=58 sleep=8) \
       por-factor=1.07x max-depth=7 events=1503" );
    ( "unsafe ruleless-gateway",
      "unsafe mc ruleless-gateway window=1.0ms: VIOLATION at t=4.00ms: blackhole at \
       healthy node 3 [schedule: 1] | schedules=13 states=14 branch-points=55 \
       pruned(visited=8 sleep=2) por-factor=1.15x max-depth=5 events=186" );
    ( "unsafe stale-label",
      "unsafe mc stale-label      window=3.0ms: VIOLATION at t=5.00ms: loop through \
       [0;1;2;3] [schedule: 0,0,0,0,0,0,1,1] | schedules=315 states=269 \
       branch-points=4331 pruned(visited=246 sleep=33) por-factor=1.10x \
       max-depth=18 events=8241" );
  ]

let expect_pinned key line =
  let want = List.assoc key pinned in
  if line <> want then begin
    failed := true;
    Printf.printf "  FAIL: %s moved from the pinned line\n  pinned: %s\n" key want
  end

let () =
  let bounds =
    { Mc.Explore.default_bounds with Mc.Explore.b_max_schedules = 3000 }
  in
  (* Safety scenarios: every schedule within the window must verify, and
     the small ones must exhaust their schedule space. *)
  List.iter
    (fun (name, need_exhaustive) ->
      let sc = Option.get (Mc.Scenario.find name) in
      let r = Mc.Explore.check ~bounds sc in
      let ok =
        match r.Mc.Explore.r_verdict with
        | Mc.Explore.Verified_exhaustive -> true
        | Mc.Explore.Verified_bounded -> not need_exhaustive
        | Mc.Explore.Found _ -> false
      in
      let line = Mc.Explore.verdict_line r in
      expect (name ^ " should verify") ok line;
      expect_pinned name line)
    [ ("fig2a", true); ("six-skip", true); ("ruleless-gateway", true);
      ("stale-label", false); ("abort-race", true) ];
  (* Regression pins: with the fix off, the violation must be found and
     minimized. *)
  List.iter
    (fun name ->
      let sc = Option.get (Mc.Scenario.find name) in
      let r = Mc.Explore.check ~bounds ~unsafe:true sc in
      let ok =
        match r.Mc.Explore.r_verdict with Mc.Explore.Found _ -> true | _ -> false
      in
      let line = "unsafe " ^ Mc.Explore.verdict_line r in
      expect (name ^ " with its fix OFF should produce a counterexample") ok line;
      expect_pinned ("unsafe " ^ name) line)
    [ "ruleless-gateway"; "stale-label" ];
  if !failed then exit 1
