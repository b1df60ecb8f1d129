(* `dune build @trace` — end-to-end check of the trace exporter.

   Runs a small traced scenario, exports the Chrome trace, parses it back
   with the Obs JSON parser and validates the schema: every event carries
   ph/pid, complete spans carry ts/dur, the protocol span tree is present,
   and the per-update phase breakdown sums to the completion time.  Then
   races probes through a faulted B4 chaos run with the packet-level
   categories on: two runs export identical JSONL, and every frame's
   [pipeline.process] span carries its attributes at begin and end.
   Exits nonzero on the first violation, so `dune runtest` fails too. *)

module Json = Obs.Json
module Trace = Obs.Trace

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace_check: " ^ s); exit 1) fmt

let check name cond = if not cond then fail "%s" name

(* Fig. 1's single flow without straggler installs. *)
let setup =
  { (Harness.Scenarios.single Topo.Topologies.fig1) with config = Netsim.default_config }

let run seed =
  Harness.Traced.run (Harness.Run_config.make ~seed ()) setup Harness.Scenarios.P4u

(* Probe traffic through a faulted B4 chaos run under a sink that keeps
   the p4rt and net categories. *)
let probe_run () =
  let sink = Trace.create () in
  let fault_plan =
    { Harness.Run_config.default_faults with fp_window_ms = 600.0; fp_horizon_ms = 3000.0 }
  in
  let cfg = Harness.Run_config.make ~seed:3 ~trace_sink:sink ~fault_plan ~recorder:false () in
  ignore
    (Harness.Chaos.run
       ~traffic:{ Harness.Traffic.default_workload with Harness.Traffic.tw_stop_ms = 250.0 }
       cfg ~scenario:Harness.Chaos.B4);
  sink

let has_keys keys attrs = List.for_all (fun k -> List.mem_assoc k attrs) keys

(* Every [pipeline.process] span begins with pipeline/instance/in_port
   and ends with emissions/digests/resubmit; returns how many there are. *)
let check_frame_spans sink =
  let open_frames = Hashtbl.create 64 and frames = ref 0 in
  List.iter
    (function
      | Trace.Span_begin { Trace.id; name = "pipeline.process"; attrs; _ } ->
        check "pipeline.process begins with pipeline/instance/in_port"
          (has_keys [ "pipeline"; "instance"; "in_port" ] attrs);
        Hashtbl.replace open_frames id ();
        incr frames
      | Trace.Span_end { id; attrs; _ } when Hashtbl.mem open_frames id ->
        check "pipeline.process ends with emissions/digests/resubmit"
          (has_keys [ "emissions"; "digests"; "resubmit" ] attrs);
        Hashtbl.remove open_frames id
      | _ -> ())
    (Trace.events sink);
  check "every pipeline.process span ends" (Hashtbl.length open_frames = 0);
  !frames

let () =
  let r = run 2024 in
  check "completion positive" (r.Harness.Traced.tr_completion_ms > 0.0);
  (* Determinism: a second same-seed run exports identical JSONL. *)
  let r2 = run 2024 in
  check "same-seed runs byte-identical"
    (Trace.to_jsonl r.Harness.Traced.tr_sink = Trace.to_jsonl r2.Harness.Traced.tr_sink);
  (* Chrome export parses back and satisfies the trace-event schema. *)
  let evs =
    match Json.of_string (Trace.to_chrome r.Harness.Traced.tr_sink) with
    | Json.List evs -> evs
    | _ -> fail "chrome export is not a JSON array"
    | exception Json.Parse_error m -> fail "chrome export does not parse: %s" m
  in
  check "export nonempty" (evs <> []);
  let x_names = ref [] in
  List.iter
    (fun ev ->
      let str k = match Json.member k ev with Some (Json.Str s) -> Some s | _ -> None in
      let num k =
        match Json.member k ev with Some j -> Json.to_number j | None -> None
      in
      let ph = match str "ph" with Some s -> s | None -> fail "event without ph" in
      check "event has pid" (num "pid" <> None);
      if ph = "X" then begin
        (match (num "ts", num "dur") with
        | Some ts, Some dur -> check "X ts/dur sane" (ts >= 0.0 && dur >= 0.0)
        | _ -> fail "X event missing ts/dur");
        match str "name" with
        | Some n -> x_names := n :: !x_names
        | None -> fail "X event missing name"
      end)
    evs;
  List.iter
    (fun n -> check (Printf.sprintf "span %S present" n) (List.mem n !x_names))
    [ "update"; "uim.flight"; "commit"; "unm.hop"; "ufm.flight" ];
  (* Phase rows must explain the completion time. *)
  (match r.Harness.Traced.tr_phases with
  | [ row ] ->
    let sum =
      row.Harness.Traced.ph_prep +. row.ph_ctl_flight +. row.ph_propagation
      +. row.ph_verification +. row.ph_ack
    in
    check "phases sum to total" (Float.abs (sum -. row.ph_total) < 1e-6);
    check "total within 1% of completion"
      (Float.abs (row.ph_total -. r.Harness.Traced.tr_completion_ms)
      <= 0.01 *. r.Harness.Traced.tr_completion_ms)
  | rows -> fail "expected 1 phase row, got %d" (List.length rows));
  let probes = probe_run () in
  check "same-seed probe runs byte-identical"
    (Trace.to_jsonl probes = Trace.to_jsonl (probe_run ()));
  let frames = check_frame_spans probes in
  check "probe run traces frames" (frames > 0);
  Printf.printf "trace_check: ok (%d chrome events, completion %.2f ms, %d traced frames)\n"
    (List.length evs) r.Harness.Traced.tr_completion_ms frames
