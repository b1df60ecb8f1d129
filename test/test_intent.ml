(* Intent layer: language round-trips, incremental-vs-full recompile
   oracle, ECMP membership under link loss, and a drained link lowered
   into one correlated burst that completes under the traffic audit. *)

module Graph = Topo.Graph
module Lang = Intent.Lang
module Compiler = Intent.Compiler
module Bridge = Intent.Bridge
module World = Harness.World
module Traffic = Harness.Traffic

let check = Alcotest.check
let bool = Alcotest.bool
let paths : int list list Alcotest.testable = Alcotest.(list (list int))

let b4_graph () = (Topo.Topologies.b4 ()).Topo.Topologies.graph

let mk name src dst policy prio =
  {
    Lang.fi_name = name;
    fi_src = src;
    fi_dst = dst;
    fi_policy = policy;
    fi_priority = prio;
    fi_demand = 1;
  }

(* Fixed mixed-policy program over B4 (12 nodes). *)
let test_program =
  {
    Lang.flows =
      [
        mk "s0" 0 7 Lang.Shortest_path 10;
        mk "s1" 3 11 Lang.Shortest_path 0;
        mk "w1" 1 9 (Lang.Waypoint 5) 20;
        mk "w2" 6 2 (Lang.Waypoint 10) 0;
        mk "e1" 2 10 (Lang.Ecmp_spread 3) 10;
        mk "e2" 4 8 (Lang.Ecmp_spread 2) 0;
      ];
    drains = [];
  }

(* ---- language --------------------------------------------------------- *)

(* Deterministic program synthesis from generated integers: endpoints
   distinct, waypoints off the endpoints, names unique by position. *)
let program_of_ints (flow_ints, drain_ints) =
  let flow i ((a, b, pk), (pv, prio, dem)) =
    let src = a mod 32 in
    let dst =
      let d = b mod 32 in
      if d = src then (d + 1) mod 32 else d
    in
    let policy =
      match pk mod 3 with
      | 0 -> Lang.Shortest_path
      | 1 ->
        (* of v, v+1, v+2 at least one avoids both endpoints *)
        let v = pv mod 32 in
        let v = if v = src || v = dst then (v + 1) mod 32 else v in
        let v = if v = src || v = dst then (v + 1) mod 32 else v in
        Lang.Waypoint v
      | _ -> Lang.Ecmp_spread (1 + (pv mod 4))
    in
    {
      Lang.fi_name = Printf.sprintf "f%d" i;
      fi_src = src;
      fi_dst = dst;
      fi_policy = policy;
      fi_priority = prio mod 100;
      fi_demand = 1 + (dem mod 3);
    }
  in
  let drains =
    List.map
      (fun (a, b) ->
        let u = a mod 32 in
        let v =
          let v = b mod 32 in
          if v = u then (v + 1) mod 32 else v
        in
        Lang.ekey u v)
      drain_ints
    |> List.sort_uniq compare
  in
  { Lang.flows = List.mapi flow flow_ints; drains }

let prop_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string p) = Ok p" ~count:200
    QCheck.(
      pair
        (small_list
           (pair
              (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))
              (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))))
        (small_list (pair (int_bound 1000) (int_bound 1000))))
    (fun ints ->
      let p = program_of_ints ints in
      Lang.of_string (Lang.to_string p) = Ok p)

let prop_garbage_never_raises =
  QCheck.Test.make ~name:"parser never raises on garbage" ~count:500
    QCheck.printable_string (fun s ->
      match Lang.of_string s with Ok _ | Error _ -> true)

let parser_rejects () =
  let bad msg s =
    match Lang.of_string s with
    | Ok _ -> Alcotest.failf "accepted %s: %S" msg s
    | Error e ->
      check bool (msg ^ " flags the line") true
        (String.length e > 0 && String.sub e 0 5 = "line ")
  in
  bad "src = dst" "flow a 0 -> 0 shortest";
  bad "via on endpoint" "flow a 0 -> 1 via 1";
  bad "ecmp k < 1" "flow a 0 -> 1 ecmp 0";
  bad "ecmp wider than the flow space"
    (Printf.sprintf "flow a 0 -> 1 ecmp %d" (P4update.Wire.flow_space + 1));
  bad "duplicate name" "flow a 0 -> 1 shortest\nflow a 2 -> 3 shortest";
  bad "trailing garbage" "flow a 0 -> 1 shortest junk";
  bad "self drain" "drain 3 - 3";
  bad "bad flow name" "flow a! 0 -> 1 shortest";
  bad "bad keyword" "flwo a 0 -> 1 shortest"

let parser_defaults () =
  match Lang.of_string "# c\nflow a 0 -> 1 shortest\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    let f = Option.get (Lang.find p "a") in
    check Alcotest.int "default priority" Lang.default_priority f.Lang.fi_priority;
    check Alcotest.int "default demand" Lang.default_demand f.Lang.fi_demand

let load_file () =
  let path = Filename.temp_file "intent" ".intent" in
  let oc = open_out path in
  output_string oc (Lang.to_string test_program);
  close_out oc;
  let got = Lang.load path in
  Sys.remove path;
  check bool "load round-trips" true (got = Ok test_program)

(* ---- incremental vs full oracle --------------------------------------- *)

let event_of_triple g (k, a, b) =
  let edges = Graph.edges g in
  let e = List.nth edges (a mod List.length edges) in
  let node = a mod Graph.node_count g in
  match k mod 8 with
  | 0 -> Compiler.Link_down (e.Graph.u, e.Graph.v)
  | 1 -> Compiler.Link_up (e.Graph.u, e.Graph.v)
  | 2 -> Compiler.Drain (e.Graph.u, e.Graph.v)
  | 3 -> Compiler.Undrain (e.Graph.u, e.Graph.v)
  | 4 -> Compiler.Capacity_set (e.Graph.u, e.Graph.v, 0.5 +. float_of_int (b mod 4))
  | 5 -> Compiler.Node_down node
  | 6 -> Compiler.Node_up node
  | _ ->
    (* re-pin w1 (1 -> 9) through a fresh waypoint *)
    let via = b mod 12 in
    let via = if via = 1 || via = 9 then (via + 3) mod 12 else via in
    Compiler.Set_flow (mk "w1" 1 9 (Lang.Waypoint via) 20)

(* The mirror state receives the same events but is forced through a
   full recompilation after each one; canonical compilation makes the
   two assignments identical whenever the affected-set logic is sound. *)
let prop_incremental_matches_full =
  QCheck.Test.make ~name:"incremental recompile = full recompile" ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 1 25)
        (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
    (fun triples ->
      let gi = b4_graph () and gf = b4_graph () in
      let inc = Compiler.create gi test_program in
      let full = Compiler.create gf test_program in
      List.for_all
        (fun tr ->
          let d = Compiler.apply inc (event_of_triple gi tr) in
          ignore (Compiler.apply full (event_of_triple gf tr));
          ignore (Compiler.recompile_all full);
          d.Compiler.d_recomputed <= d.Compiler.d_flow_count
          && Compiler.assignment inc = Compiler.assignment full
          && Compiler.degraded inc = Compiler.degraded full)
        triples)

let uses_edge key path =
  let rec go = function
    | a :: (b :: _ as rest) -> Lang.ekey a b = key || go rest
    | _ -> false
  in
  go path

let users_of_edge c (u, v) =
  let key = Lang.ekey u v in
  List.filter
    (fun (_, ms) -> List.exists (uses_edge key) ms)
    (Compiler.assignment c)

(* A drain recompiles exactly the flows whose members cross the link,
   plus any degraded waypoint flow (a removal can revive those by moving
   leg 1) — the incremental footprint stays below the program size. *)
let drain_footprint () =
  let g = b4_graph () in
  let c = Compiler.create g test_program in
  let n = Compiler.flow_count c in
  let riders =
    (* degraded waypoint flows ride along on every removal *)
    List.filter
      (fun name ->
        Compiler.members c name = []
        &&
        match (Option.get (Lang.find test_program name)).Lang.fi_policy with
        | Lang.Waypoint _ -> true
        | _ -> false)
      (Compiler.degraded c)
  in
  let e, expected =
    List.find_map
      (fun (e : Graph.edge) ->
        let users = users_of_edge c (e.Graph.u, e.Graph.v) in
        let k =
          List.length users
          + List.length
              (List.filter
                 (fun r -> not (List.mem_assoc r users))
                 riders)
        in
        if users <> [] && k < n then Some (e, k) else None)
      (Graph.edges g)
    |> Option.get
  in
  let d = Compiler.apply c (Compiler.Drain (e.Graph.u, e.Graph.v)) in
  check Alcotest.int "recomputes exactly the users" expected
    d.Compiler.d_recomputed;
  check bool "diff smaller than the program" true
    (d.Compiler.d_recomputed < d.Compiler.d_flow_count);
  check bool "at least one member moved" true (d.Compiler.d_changes <> []);
  let key = Lang.ekey e.Graph.u e.Graph.v in
  List.iter
    (fun (name, ms) ->
      List.iter
        (fun p ->
          check bool (name ^ " avoids the drained link") false (uses_edge key p))
        ms)
    (Compiler.assignment c);
  (* draining the same link again is a no-op *)
  let d2 = Compiler.apply c (Compiler.Drain (e.Graph.u, e.Graph.v)) in
  check Alcotest.int "repeat drain is a no-op" 0 d2.Compiler.d_recomputed

(* ---- ECMP under link loss --------------------------------------------- *)

let ecmp_members_under_link_loss () =
  let g = b4_graph () in
  let n = Graph.node_count g in
  let pair = ref None in
  (try
     for s = 0 to n - 1 do
       for d = 0 to n - 1 do
         if
           s <> d
           && List.length (Graph.k_shortest_paths g ~src:s ~dst:d ~k:3) = 3
         then begin
           pair := Some (s, d);
           raise Exit
         end
       done
     done
   with Exit -> ());
  let src, dst = Option.get !pair in
  let prog = { Lang.flows = [ mk "e" src dst (Lang.Ecmp_spread 3) 0 ]; drains = [] } in
  let c = Compiler.create g prog in
  let before = Compiler.members c "e" in
  check Alcotest.int "3 members up front" 3 (List.length before);
  let m0 = List.hd before in
  let u, v = (List.nth m0 0, List.nth m0 1) in
  let d = Compiler.apply c (Compiler.Link_down (u, v)) in
  check Alcotest.int "one flow recompiled" 1 d.Compiler.d_recomputed;
  let after = Compiler.members c "e" in
  let expect =
    Graph.k_shortest_paths_avoiding g ~src ~dst ~k:3
      ~node_ok:(fun _ -> true)
      ~edge_ok:(fun a b -> Lang.ekey a b <> Lang.ekey u v)
  in
  check paths "members = Yen over the masked graph" expect after;
  let key = Lang.ekey u v in
  List.iter
    (fun p -> check bool "member avoids the lost link" false (uses_edge key p))
    after;
  if List.length after < 3 then
    check bool "short spread is reported degraded" true
      (List.mem "e" (Compiler.degraded c));
  ignore (Compiler.apply c (Compiler.Link_up (u, v)));
  check paths "restore converges back" before (Compiler.members c "e")

(* ---- drained link -> correlated burst under the traffic audit --------- *)

let drain_burst_audit () =
  let topo = Topo.Topologies.b4 () in
  let w = World.make ~seed:11 topo in
  let g = Netsim.graph w.World.net in
  let ctrl = w.World.controller in
  let comp = Compiler.create g test_program in
  let bridge = Bridge.create () in
  let install ~flow_id ~src ~dst ~size ~path =
    ignore (World.install_flow ~flow_id w ~src ~dst ~size ~path)
  in
  let retire ~flow_id = P4update.Controller.retire_flow ctrl ~flow_id in
  let boot =
    Bridge.lower bridge ~program:test_program
      ~diff:(Compiler.bootstrap_diff comp) ~install ~retire
  in
  check Alcotest.int "bootstrap emits installs, not updates" 0 (List.length boot);
  check Alcotest.int "every member installed" (Compiler.member_count comp)
    (List.length (World.flows w));
  let tr = Traffic.attach w in
  Traffic.start tr;
  Traffic.inject_until tr ~stop_ms:250.0;
  ignore (World.run ~until:200.0 w);
  (* one intent event: drain a link crossed by several flows *)
  let e =
    List.find
      (fun (e : Graph.edge) ->
        List.length (users_of_edge comp (e.Graph.u, e.Graph.v)) >= 2)
      (Graph.edges g)
  in
  let diff = Compiler.apply comp (Compiler.Drain (e.Graph.u, e.Graph.v)) in
  check bool "several flows recompiled" true (diff.Compiler.d_recomputed >= 2);
  check bool "but fewer than the whole program" true
    (diff.Compiler.d_recomputed < diff.Compiler.d_flow_count);
  let reqs =
    Bridge.lower bridge ~program:test_program ~diff ~install ~retire
  in
  check bool "the drain lowers into update requests" true (reqs <> []);
  let prepared = P4update.Controller.prepare_batch ctrl reqs in
  check Alcotest.int "one update per request" (List.length reqs)
    (List.length prepared);
  List.iter (fun p -> P4update.Controller.push ctrl p) prepared;
  Traffic.inject_until tr ~stop_ms:450.0;
  ignore (World.run w);
  List.iter
    (fun (p : P4update.Controller.prepared) ->
      check bool
        (Printf.sprintf "update %d/v%d completed" p.P4update.Controller.p_flow
           p.P4update.Controller.p_version)
        true
        (P4update.Controller.completion_time ctrl
           ~flow_id:p.P4update.Controller.p_flow
           ~version:p.P4update.Controller.p_version
        <> None))
    prepared;
  Traffic.drain tr;
  let s = Traffic.finalize tr in
  check Alcotest.int "zero audit violations" 0 (Traffic.violations s);
  check Alcotest.int "no packets in flight" 0 (Traffic.in_flight tr)

(* ---- seeded drain-storm determinism ----------------------------------- *)

let scale_digest (r : Harness.Run.result) =
  (r.r_pushed, r.r_completed, r.r_churned, r.r_bursts, List.length r.r_completion_ms)

let digest_t = Alcotest.(pair (pair int int) (pair int (pair int int)))
let flat (a, b, c, d, e) = ((a, b), (c, (d, e)))

let intent_scale_deterministic () =
  let wl =
    {
      Harness.Scale.default_workload with
      source = Harness.Run.Intent;
      updates = 80;
      flows = 16;
      arrival_mean_ms = 8.0;
      pacing = Harness.Run.Open 120_000.0;
    }
  in
  let r1 = Harness.Run.run ~seed:5 wl (Topo.Topologies.b4 ()) in
  let r2 = Harness.Run.run ~seed:5 wl (Topo.Topologies.b4 ()) in
  check digest_t "same seed, same run" (flat (scale_digest r1))
    (flat (scale_digest r2));
  check Alcotest.int "no invariant violations" 0
    (List.length r1.r_violations);
  check bool "drain storm pushed updates" true (r1.r_pushed > 0);
  check bool "updates completed" true (r1.r_completed > 0)

(* ---- pins: the compiler's drain footprint and an intent-churn run ----- *)

(* A drawn 24-intent program on B4: drain then undrain every link its
   members use; the totals are pure functions of the seed. *)
let compiler_footprint_pins () =
  let w = World.make ~seed:7 (Topo.Topologies.b4 ()) in
  let g = Netsim.graph w.World.net in
  let ic = Harness.Intent_churn.create ~flows:24 w in
  let program = Harness.Intent_churn.program ic in
  let flows = List.length program.Lang.flows in
  check Alcotest.int "flows" 24 flows;
  check Alcotest.int "members" 36 (Harness.Intent_churn.members ic);
  let comp = Compiler.create g program in
  let used = Hashtbl.create 64 in
  List.iter
    (fun (_, members) ->
      List.iter
        (fun path ->
          let rec walk = function
            | a :: (b :: _ as rest) ->
              Hashtbl.replace used (Lang.ekey a b) ();
              walk rest
            | _ -> ()
          in
          walk path)
        members)
    (Compiler.assignment comp);
  let links = Hashtbl.fold (fun k () acc -> k :: acc) used [] |> List.sort compare in
  let events = ref 0 and recomputed = ref 0 and changed = ref 0 and max_diff = ref 0 in
  List.iter
    (fun (u, v) ->
      List.iter
        (fun ev ->
          let d = Compiler.apply comp ev in
          incr events;
          recomputed := !recomputed + d.Compiler.d_recomputed;
          changed := !changed + List.length d.Compiler.d_changes;
          max_diff := max !max_diff d.Compiler.d_recomputed)
        [ Compiler.Drain (u, v); Compiler.Undrain (u, v) ])
    links;
  check Alcotest.int "drain/undrain events" 36 !events;
  check Alcotest.int "recomputed" 310 !recomputed;
  check Alcotest.int "changed" 186 !changed;
  check Alcotest.int "max diff" 15 !max_diff;
  check bool "largest diff below a full recompile" true (!max_diff < flows)

let intent_churn_run_pins () =
  let wl =
    {
      Harness.Scale.default_workload with
      source = Harness.Run.Intent;
      updates = 200;
      flows = 24;
      arrival_mean_ms = 8.0;
      pacing = Harness.Run.Open 600_000.0;
    }
  in
  let r = Harness.Run.run ~seed:5 wl (Topo.Topologies.b4 ()) in
  check Alcotest.int "pushed" 204 r.r_pushed;
  check Alcotest.int "completed" 87 r.r_completed;
  check Alcotest.int "events" 3196 r.r_events;
  check Alcotest.int "bursts" 26 r.r_bursts;
  check Alcotest.int "churned" 28 r.r_churned;
  check (Alcotest.float 1e-6) "p99" 274.381738 r.r_p99_ms;
  check Alcotest.int "violations" 0 (List.length r.r_violations)

let soak_intent_quick () =
  let r =
    Harness.Run.run ~seed:3
      { Harness.Soak.quick_config with source = Harness.Run.Intent }
      (Topo.Topologies.b4 ())
  in
  check Alcotest.(list string) "no leaks" [] r.r_leaks;
  check bool "soak SLO holds under intent churn" true (Harness.Run.ok r)

let suite =
  [
    Alcotest.test_case "parser rejects malformed programs" `Quick parser_rejects;
    Alcotest.test_case "parser fills declared defaults" `Quick parser_defaults;
    Alcotest.test_case "load round-trips through a file" `Quick load_file;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_garbage_never_raises;
    QCheck_alcotest.to_alcotest prop_incremental_matches_full;
    Alcotest.test_case "drain recompiles only the users" `Quick drain_footprint;
    Alcotest.test_case "ECMP members under link loss" `Quick
      ecmp_members_under_link_loss;
    Alcotest.test_case "drained link -> audited burst" `Quick drain_burst_audit;
    Alcotest.test_case "seeded drain storm is deterministic" `Quick
      intent_scale_deterministic;
    Alcotest.test_case "soak holds under intent churn" `Quick soak_intent_quick;
    Alcotest.test_case "compiler drain footprint pinned" `Quick compiler_footprint_pins;
    Alcotest.test_case "intent-churn run pinned" `Quick intent_churn_run_pins;
  ]
