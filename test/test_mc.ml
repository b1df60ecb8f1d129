(* The model checker itself: the chooser layer's default behavior, the
   explorer's verdicts on the bundled scenarios, and the two DESIGN §4b
   regression pins (the checker must FIND each historical violation when
   its fix is toggled off). *)

open Dessim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A chooser that always picks index 0 must reproduce the default FIFO
   run exactly — same execution order, same clock. *)
let test_default_chooser_identity () =
  let run ~chooser () =
    let sim = Sim.create ~seed:3 () in
    let log = ref [] in
    let emit x = log := (x, Sim.now sim) :: !log in
    for i = 0 to 9 do
      Sim.schedule sim ~delay:(float_of_int (i mod 3)) (fun () -> emit i)
    done;
    Sim.schedule sim ~delay:1.0 (fun () ->
        Sim.schedule sim ~delay:0.5 (fun () -> emit 100));
    if chooser then Sim.set_chooser ~window:0.0 sim (fun ~now:_ _ -> 0);
    while Sim.step sim do () done;
    List.rev !log
  in
  check "same order and clocks" true (run ~chooser:false () = run ~chooser:true ())

(* Picking a later candidate advances the clock to its time (delay model):
   the displaced earlier event then runs late, never in the past. *)
let test_chooser_delays_earlier () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> log := (0, Sim.now sim) :: !log);
  Sim.schedule sim ~delay:2.0 (fun () -> log := (1, Sim.now sim) :: !log);
  Sim.set_chooser ~window:1.5 sim (fun ~now:_ cands -> Array.length cands - 1);
  while Sim.step sim do () done;
  match List.rev !log with
  | [ (1, t1); (0, t0) ] ->
    check "later event first at its own time" true (t1 = 2.0);
    check "displaced event runs at the later clock" true (t0 = 2.0)
  | _ -> Alcotest.fail "wrong delivery order"

let find_sc name =
  match Mc.Scenario.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s missing" name

(* Fig. 2a: every interleaving within the default window satisfies
   Thm. 1-4 and converges — and the space is small enough to exhaust. *)
let test_fig2a_exhaustive () =
  let r = Mc.Explore.check (find_sc "fig2a") in
  (match r.Mc.Explore.r_verdict with
   | Mc.Explore.Verified_exhaustive -> ()
   | Mc.Explore.Verified_bounded -> Alcotest.fail "expected exhaustive, hit a bound"
   | Mc.Explore.Found cex -> Alcotest.failf "violation: %s" cex.Mc.Explore.cex_what);
  check "explored more than one schedule" true (r.Mc.Explore.r_stats.Mc.Explore.st_schedules > 1)

let test_six_skip_exhaustive () =
  let r = Mc.Explore.check (find_sc "six-skip") in
  match r.Mc.Explore.r_verdict with
  | Mc.Explore.Verified_exhaustive -> ()
  | Mc.Explore.Verified_bounded -> Alcotest.fail "expected exhaustive, hit a bound"
  | Mc.Explore.Found cex -> Alcotest.failf "violation: %s" cex.Mc.Explore.cex_what

(* POR must not change the verdict, only the work. *)
let test_por_preserves_verdict () =
  let sc = find_sc "fig2a" in
  let no_por =
    { Mc.Explore.default_bounds with Mc.Explore.b_por = false }
  in
  let r1 = Mc.Explore.check sc and r2 = Mc.Explore.check ~bounds:no_por sc in
  let exhaustive r =
    match r.Mc.Explore.r_verdict with
    | Mc.Explore.Verified_exhaustive -> true
    | _ -> false
  in
  check "both exhaustive" true (exhaustive r1 && exhaustive r2)

(* DESIGN §4b regression pins: with the fix on, the scenario is safe in
   every explored schedule; with the fix off the checker must find the
   historical violation, and the minimized counterexample must replay to
   the same violation deterministically. *)
let pin ~scenario ~needle ~bounds () =
  let sc = find_sc scenario in
  (match (Mc.Explore.check ~bounds sc).Mc.Explore.r_verdict with
   | Mc.Explore.Found cex ->
     Alcotest.failf "%s violated with the fix ON: %s" scenario cex.Mc.Explore.cex_what
   | _ -> ());
  match (Mc.Explore.check ~bounds ~unsafe:true sc).Mc.Explore.r_verdict with
  | Mc.Explore.Found cex ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    check (scenario ^ ": expected violation kind") true
      (contains cex.Mc.Explore.cex_what needle);
    (* Deterministic replay: running the minimized schedule again (fix
       still off) reproduces the violation. *)
    Mc.Scenario.with_toggle sc ~unsafe:true (fun () ->
        check (scenario ^ ": minimized schedule replays") true
          (let sink = Obs.Trace.create () in
           Mc.Explore.replay sc ~window:sc.Mc.Scenario.sc_window_ms
             cex.Mc.Explore.cex_schedule sink;
           List.exists
             (function
               | Obs.Trace.Instant { name = "mc.violation"; _ } -> true
               | _ -> false)
             (Obs.Trace.events sink)))
  | _ -> Alcotest.failf "%s: checker missed the violation with the fix OFF" scenario

let small_bounds = { Mc.Explore.default_bounds with Mc.Explore.b_max_schedules = 3000 }

let test_pin_ruleless_gateway =
  pin ~scenario:"ruleless-gateway" ~needle:"blackhole" ~bounds:small_bounds

let test_pin_stale_label = pin ~scenario:"stale-label" ~needle:"loop" ~bounds:small_bounds

(* Minimization output is canonical for the ruleless-gateway pin: a
   single non-default choice suffices. *)
let test_minimized_schedule_is_short () =
  let sc = find_sc "ruleless-gateway" in
  match (Mc.Explore.check ~unsafe:true sc).Mc.Explore.r_verdict with
  | Mc.Explore.Found cex ->
    check_int "schedule length" 1 (List.length cex.Mc.Explore.cex_schedule)
  | _ -> Alcotest.fail "violation not found"

let suite =
  [
    Alcotest.test_case "default chooser is byte-identical" `Quick
      test_default_chooser_identity;
    Alcotest.test_case "choosing a later event delays the earlier" `Quick
      test_chooser_delays_earlier;
    Alcotest.test_case "fig2a exhaustively verified" `Quick test_fig2a_exhaustive;
    Alcotest.test_case "six-node skip-ahead exhaustively verified" `Quick
      test_six_skip_exhaustive;
    Alcotest.test_case "POR on/off agree" `Quick test_por_preserves_verdict;
    Alcotest.test_case "pin: ruleless gateway (fix 2)" `Quick test_pin_ruleless_gateway;
    Alcotest.test_case "pin: stale inside-segment label (fix 1)" `Slow
      test_pin_stale_label;
    Alcotest.test_case "minimized counterexample is minimal" `Quick
      test_minimized_schedule_is_short;
  ]
