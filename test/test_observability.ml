(* Tests for the observability plane: the shared quantile implementation
   (Stats delegates to it), the flight recorder's ring semantics and
   incident snapshots,
   the Sim tick hook driving the SLO time-series, and the bench rows
   writer (Obs.Rows). *)

module Sim = Dessim.Sim
module Quantile = Obs.Quantile
module Recorder = Obs.Flight_recorder
module Rows = Obs.Rows
module Json = Obs.Json

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- quantile unification ------------------------------------------- *)

let test_quantile_unified () =
  let xs = [ 5.0; 1.0; 9.0; 3.0; 7.0 ] in
  List.iter
    (fun p ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "Stats delegates to Quantile at p=%.0f" p)
        (Quantile.of_list_opt p xs)
        (Harness.Stats.percentile_opt p xs))
    [ 0.0; 25.0; 50.0; 99.0; 100.0 ];
  (* Exact order statistics on the sorted list. *)
  Alcotest.(check (option (float 1e-9))) "p0 is min" (Some 1.0)
    (Harness.Stats.percentile_opt 0.0 xs);
  Alcotest.(check (option (float 1e-9))) "p50 is median" (Some 5.0)
    (Harness.Stats.percentile_opt 50.0 xs);
  Alcotest.(check (option (float 1e-9))) "p100 is max" (Some 9.0)
    (Harness.Stats.percentile_opt 100.0 xs);
  (* Both front ends reject the same out-of-range p. *)
  Alcotest.check_raises "Stats rejects p=101"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Harness.Stats.percentile_opt 101.0 xs))

(* --- flight recorder: ring semantics -------------------------------- *)

let fill r n =
  for i = 0 to n - 1 do
    Recorder.install r;
    Recorder.note ~now:(float_of_int i) ~kind:Recorder.k_inject ~node:(i mod 3)
      ~flow:i ~a:(i * 10) ~b:0
  done;
  Recorder.uninstall ()

let test_recorder_wraparound () =
  let r = Recorder.create ~capacity:8 () in
  fill r 5;
  Alcotest.(check int) "partial fill retains all" 5 (List.length (Recorder.events r));
  Alcotest.(check int) "no drops yet" 0 (Recorder.dropped r);
  fill r 15;
  (* 20 total through a capacity-8 ring: the last 8 survive. *)
  Alcotest.(check int) "total counts everything" 20 (Recorder.total r);
  Alcotest.(check int) "dropped = total - capacity" 12 (Recorder.dropped r);
  let evs = Recorder.events r in
  Alcotest.(check int) "ring holds capacity" 8 (List.length evs);
  (* Chronological: the retained window is the most recent 8 of the
     second fill (timestamps 7..14). *)
  Alcotest.(check (list (float 0.0))) "oldest-first window"
    [ 7.0; 8.0; 9.0; 10.0; 11.0; 12.0; 13.0; 14.0 ]
    (List.map (fun e -> e.Recorder.ev_ts) evs);
  List.iter
    (fun e -> Alcotest.(check int) "payload rides along" (e.Recorder.ev_flow * 10) e.Recorder.ev_a)
    evs;
  Recorder.clear r;
  Alcotest.(check int) "clear empties" 0 (List.length (Recorder.events r));
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Flight_recorder.create: capacity < 1") (fun () ->
      ignore (Recorder.create ~capacity:0 ()))

let test_note_without_recorder () =
  Recorder.uninstall ();
  (* Must be a no-op, not a crash. *)
  Recorder.note ~now:1.0 ~kind:Recorder.k_push ~node:0 ~flow:0 ~a:0 ~b:0;
  Alcotest.(check (option string)) "trigger without recorder" None
    (Recorder.trigger ~now:1.0 ~reason:"nobody-home")

(* --- flight recorder: incident snapshots ---------------------------- *)

(* Drive the same event sequence twice into recorders with separate
   incident dirs: the dumped snapshots must be byte-identical. *)
let test_snapshot_determinism () =
  let run_one dir =
    let r = Recorder.create ~capacity:16 ~incident_dir:dir () in
    Recorder.install r;
    for i = 0 to 40 do
      Recorder.note ~now:(float_of_int i *. 0.5) ~kind:(i mod 10) ~node:(i mod 4)
        ~flow:(i mod 7) ~a:i ~b:(i * i)
    done;
    let path = Recorder.trigger ~now:21.0 ~reason:"unit-test" in
    Recorder.uninstall ();
    match path with
    | Some p -> p
    | None -> Alcotest.fail "trigger with incident_dir wrote nothing"
  in
  let d1 = temp_dir "fr_a" and d2 = temp_dir "fr_b" in
  let p1 = run_one d1 and p2 = run_one d2 in
  Alcotest.(check string) "same filename" (Filename.basename p1) (Filename.basename p2);
  Alcotest.(check string) "byte-identical snapshots" (read_file p1) (read_file p2)

let test_snapshot_loadable_and_capped () =
  let dir = temp_dir "fr_cap" in
  let r = Recorder.create ~capacity:16 ~incident_dir:dir ~max_incidents:2 () in
  Recorder.install r;
  Recorder.note ~now:1.0 ~kind:Recorder.k_violation ~node:2 ~flow:5 ~a:0 ~b:0;
  let p1 = Recorder.trigger ~now:1.0 ~reason:"first breach!" in
  let p2 = Recorder.trigger ~now:2.0 ~reason:"second" in
  let p3 = Recorder.trigger ~now:3.0 ~reason:"over-cap" in
  Recorder.uninstall ();
  Alcotest.(check bool) "first two dumped" true (p1 <> None && p2 <> None);
  Alcotest.(check (option string)) "cap stops the third" None p3;
  Alcotest.(check int) "triggers count past the cap" 3 (Recorder.triggers r);
  Alcotest.(check int) "two files written" 2 (Recorder.incidents r);
  (* The filename slug keeps only safe characters. *)
  let p1 = Option.get p1 in
  Alcotest.(check string) "slugged filename" "incident-000-first-breach-.json"
    (Filename.basename p1);
  (* A snapshot is a well-formed Chrome trace-event array: thread-name
     metadata, one instant per retained event, the trigger marker last. *)
  match Json.of_string (read_file p1) with
  | Json.List evs ->
    Alcotest.(check bool) "nonempty" true (evs <> []);
    List.iter
      (fun ev ->
        match (Json.member "ph" ev, Json.member "pid" ev) with
        | Some (Json.Str ("i" | "M")), Some (Json.Int 0) -> ()
        | _ -> Alcotest.fail "event without ph/pid")
      evs;
    let last = List.nth evs (List.length evs - 1) in
    (match Json.member "name" last with
    | Some (Json.Str n) ->
      Alcotest.(check string) "trigger marker last" "incident: first breach!" n
    | _ -> Alcotest.fail "no trigger marker");
    (match Json.member "args" last with
    | Some args ->
      (match Json.member "events_retained" args with
      | Some (Json.Int n) -> Alcotest.(check bool) "retained count" true (n >= 2)
      | _ -> Alcotest.fail "no events_retained")
    | None -> Alcotest.fail "trigger without args")
  | _ -> Alcotest.fail "snapshot is not a JSON array"
  | exception Json.Parse_error e -> Alcotest.failf "snapshot unparseable: %s" e

(* --- Sim tick hook --------------------------------------------------- *)

let test_sim_tick_hook () =
  let sim = Sim.create ~seed:1 () in
  let ticks = ref [] in
  Sim.set_tick sim ~every_ms:10.0 (fun ~now -> ticks := now :: !ticks);
  (* Events at 5, 25 and 47 ms: the catch-up loop must fire every crossed
     boundary with the boundary's own timestamp, including multiple
     boundaries crossed by one dispatch. *)
  List.iter (fun t -> Sim.schedule_at sim ~time:t (fun () -> ())) [ 5.0; 25.0; 47.0 ];
  ignore (Sim.run sim);
  Alcotest.(check (list (float 0.0))) "boundaries, in order"
    [ 10.0; 20.0; 30.0; 40.0 ]
    (List.rev !ticks);
  (* clear_tick stops further firing. *)
  ticks := [];
  Sim.clear_tick sim;
  Sim.schedule_at sim ~time:99.0 (fun () -> ());
  ignore (Sim.run sim);
  Alcotest.(check (list (float 0.0))) "cleared hook is silent" [] !ticks;
  Alcotest.check_raises "non-positive tick rejected"
    (Invalid_argument "Sim.set_tick: tick period must be positive") (fun () ->
      Sim.set_tick sim ~every_ms:0.0 (fun ~now:_ -> ()))

let test_timeseries_windows () =
  let sim = Sim.create ~seed:1 () in
  let ts = Obs.Timeseries.create ~tick_ms:10.0 in
  let count = ref 0 in
  Obs.Timeseries.gauge ts "pending" ~unit_:"events" (fun () ->
      float_of_int (Sim.pending sim));
  Obs.Timeseries.rate ts "arrivals" ~unit_:"ops/s" (fun () -> float_of_int !count);
  Obs.Timeseries.dist ts "lat" ~unit_:"ms";
  Sim.set_tick sim ~every_ms:10.0 (fun ~now -> Obs.Timeseries.tick ts ~now);
  for i = 1 to 4 do
    Sim.schedule_at sim ~time:(float_of_int i *. 7.0) (fun () ->
        incr count;
        Obs.Timeseries.observe ts "lat" (float_of_int i))
  done;
  ignore (Sim.run sim);
  let ws = Obs.Timeseries.windows ts in
  Alcotest.(check int) "two windows (t=10, t=20)" 2 (List.length ws);
  let w1 = List.hd ws in
  Alcotest.(check (float 0.0)) "first window at 10ms" 10.0 w1.Obs.Timeseries.w_t_ms;
  (* One arrival (t=7) in the first 10 ms window = 100/s. *)
  Alcotest.(check (option (float 1e-6))) "rate over the window" (Some 100.0)
    (List.assoc_opt "arrivals" w1.Obs.Timeseries.w_values);
  Alcotest.(check (option (float 1e-6))) "dist count" (Some 1.0)
    (List.assoc_opt "lat.n" w1.Obs.Timeseries.w_values);
  (* JSONL: one line per window, each a parseable flat object. *)
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Timeseries.to_jsonl ws))
  in
  Alcotest.(check int) "one JSONL line per window" 2 (List.length lines);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Json.Obj fields ->
        Alcotest.(check bool) "t_ms present" true (List.mem_assoc "t_ms" fields)
      | _ -> Alcotest.fail "JSONL line is not an object")
    lines;
  (* Trend lines render one row per metric from the bare window list. *)
  let trends = Obs.Timeseries.trend_lines ws in
  Alcotest.(check int) "one trend per column" 5 (List.length trends)

(* --- bench rows ------------------------------------------------------- *)

let test_rows_json () =
  let dir = temp_dir "rows" in
  let rows =
    [
      Rows.row "a/throughput" "events/s" 12345.6;
      Rows.row "a/p99" "ms" 7.5;
      Rows.row "a/violations" "count" 0.0;
    ]
  in
  let path = Filename.concat dir "rows.json" in
  Rows.write ~path rows;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let number = function
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> Alcotest.fail "value is not a number"
  in
  match Obs.Json.of_string text with
  | Obs.Json.List items ->
    Alcotest.(check int) "one object per row" 3 (List.length items);
    List.iter2
      (fun (w : Rows.row) item ->
        Alcotest.(check (option string)) "name" (Some w.r_name)
          (match Obs.Json.member "name" item with Some (Obs.Json.Str s) -> Some s | _ -> None);
        Alcotest.(check (option string)) "unit" (Some w.r_unit)
          (match Obs.Json.member "unit" item with Some (Obs.Json.Str s) -> Some s | _ -> None);
        Alcotest.(check (float 1e-9)) "value" w.r_value (number (Obs.Json.member "value" item)))
      rows items
  | _ -> Alcotest.fail "rows file is not a JSON array"

(* --- end to end: forced violation dumps a loadable incident ---------- *)

(* With the DESIGN §4b ruleless-gateway fix toggled OFF, the model
   checker finds the historical blackhole.  The shared Invariants
   monitor fires the recorder trigger on the violation, so a recorder
   installed with an incident directory must leave a loadable Perfetto
   snapshot behind — the ISSUE's acceptance test. *)
let test_forced_violation_snapshot () =
  let dir = temp_dir "incident" in
  let sc =
    match Mc.Scenario.find "ruleless-gateway" with
    | Some sc -> sc
    | None -> Alcotest.fail "ruleless-gateway scenario missing"
  in
  let bounds =
    { Mc.Explore.default_bounds with Mc.Explore.b_max_schedules = 3000 }
  in
  let r = Recorder.create ~incident_dir:dir () in
  Recorder.install r;
  let result =
    Fun.protect ~finally:Recorder.uninstall (fun () ->
        Mc.Explore.check ~bounds ~unsafe:true sc)
  in
  (match result.Mc.Explore.r_verdict with
  | Mc.Explore.Found _ -> ()
  | _ -> Alcotest.fail "unsafe toggle did not surface the violation");
  Alcotest.(check bool) "trigger fired" true (Recorder.triggers r > 0);
  let files = Sys.readdir dir in
  Alcotest.(check bool) "incident file written" true (Array.length files > 0);
  Array.sort compare files;
  let snap = read_file (Filename.concat dir files.(0)) in
  match Json.of_string snap with
  | Json.List evs ->
    let names =
      List.filter_map
        (fun ev ->
          match Json.member "name" ev with Some (Json.Str n) -> Some n | _ -> None)
        evs
    in
    Alcotest.(check bool) "violation instant in window" true
      (List.mem "violation" names);
    Alcotest.(check bool) "incident marker present" true
      (List.exists
         (fun n -> String.length n >= 9 && String.sub n 0 9 = "incident:")
         names)
  | _ -> Alcotest.fail "incident snapshot is not a JSON array"
  | exception Json.Parse_error e -> Alcotest.failf "incident unparseable: %s" e

(* Same-seed soak runs with the recorder on produce identical results and
   identical retained windows: recording never perturbs the simulation. *)
let test_recorder_soak_determinism () =
  let run () =
    let r = Recorder.create () in
    Recorder.install r;
    let config =
      { Harness.Soak.quick_config with
        Harness.Run.pacing =
          Harness.Run.Cycles { Harness.Soak.quick_cycles with cycles = 1 } }
    in
    let result =
      Fun.protect ~finally:Recorder.uninstall (fun () ->
          Harness.Run.run ~seed:11 config (Topo.Topologies.fig1 ()))
    in
    (result, Recorder.total r, Recorder.events r)
  in
  let r1, t1, e1 = run () and r2, t2, e2 = run () in
  Alcotest.(check int) "same event totals" t1 t2;
  Alcotest.(check bool) "recorder saw traffic" true (t1 > 0);
  Alcotest.(check int) "same retained window" (List.length e1) (List.length e2);
  List.iter2
    (fun a b ->
      Alcotest.(check (float 0.0)) "same ts" a.Recorder.ev_ts b.Recorder.ev_ts;
      Alcotest.(check int) "same kind" a.Recorder.ev_kind b.Recorder.ev_kind)
    e1 e2;
  Alcotest.(check int) "same updates completed" r1.Harness.Run.r_completed r2.r_completed;
  Alcotest.(check int) "same series windows" (List.length r1.r_series)
    (List.length r2.r_series)

let suite =
  [
    Alcotest.test_case "quantile: Stats and Metrics unified" `Quick test_quantile_unified;
    Alcotest.test_case "recorder ring wraparound" `Quick test_recorder_wraparound;
    Alcotest.test_case "recorder disabled is a no-op" `Quick test_note_without_recorder;
    Alcotest.test_case "incident snapshots deterministic" `Quick
      test_snapshot_determinism;
    Alcotest.test_case "incident snapshots loadable & capped" `Quick
      test_snapshot_loadable_and_capped;
    Alcotest.test_case "sim tick hook" `Quick test_sim_tick_hook;
    Alcotest.test_case "timeseries windows & exports" `Quick test_timeseries_windows;
    Alcotest.test_case "rows JSON: name, unit, value" `Quick test_rows_json;
    Alcotest.test_case "forced violation dumps incident" `Quick
      test_forced_violation_snapshot;
    Alcotest.test_case "recorder-on soak deterministic" `Quick
      test_recorder_soak_determinism;
  ]
