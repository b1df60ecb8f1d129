(* Tests for the network emulation layer. *)

module Sim = Dessim.Sim

let line_topo () =
  let g = Topo.Graph.create 3 in
  Topo.Graph.add_edge g ~u:0 ~v:1 ~latency_ms:5.0 ~capacity:10.0;
  Topo.Graph.add_edge g ~u:1 ~v:2 ~latency_ms:7.0 ~capacity:10.0;
  {
    Topo.Topologies.name = "line";
    kind = Topo.Topologies.Synthetic;
    graph = g;
    node_names = [| "a"; "b"; "c" |];
    controller = 1;
  }

(* A simulation hands every frame to one handler, so it carries one
   network: a second network on the same simulation is refused instead of
   silently taking over the first one's deliveries. *)
let test_one_network_per_sim () =
  let sim = Sim.create () in
  ignore (Netsim.create sim (line_topo ()));
  Alcotest.check_raises "second network"
    (Invalid_argument "Sim.set_frame_handler: this simulation already has a frame handler")
    (fun () -> ignore (Netsim.create sim (line_topo ())))

let test_port_numbering () =
  let net = Netsim.create (Sim.create ()) (line_topo ()) in
  Alcotest.(check int) "node 1 has two ports" 2 (Netsim.port_count net ~node:1);
  Alcotest.(check (option int)) "port 0 of node 1" (Some 0)
    (Netsim.neighbor_of_port net ~node:1 ~port:0);
  Alcotest.(check (option int)) "port 1 of node 1" (Some 2)
    (Netsim.neighbor_of_port net ~node:1 ~port:1);
  Alcotest.(check (option int)) "out of range" None (Netsim.neighbor_of_port net ~node:1 ~port:7);
  Alcotest.(check int) "reverse lookup" 1 (Netsim.port_of_neighbor net ~node:1 ~neighbor:2)

let test_transmit_latency () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let arrival = ref None in
  Netsim.attach net ~node:1 (fun ~port _ ->
      if port <> Netsim.port_controller then arrival := Some (Sim.now sim));
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  match !arrival with
  | Some t ->
    (* 5 ms propagation + 0.5 ms processing *)
    Alcotest.(check (float 0.001)) "latency" 5.5 t
  | None -> Alcotest.fail "packet not delivered"

let test_unbound_port_is_noop () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  Netsim.transmit net ~from:0 ~port:9 (Bytes.of_string "x");
  Alcotest.(check int) "no event scheduled" 0 (Sim.pending sim)

let test_controller_fifo_serialization () =
  (* Two back-to-back controller messages to the same switch must be
     spaced by at least the service time. *)
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let arrivals = ref [] in
  Netsim.attach net ~node:0 (fun ~port _ ->
      if port = Netsim.port_controller then arrivals := Sim.now sim :: !arrivals);
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "a");
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "b");
  let _ = Sim.run sim in
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    let service = (Netsim.config net).Netsim.controller_service_ms in
    Alcotest.(check bool)
      (Printf.sprintf "serialized (%.3f then %.3f)" t1 t2)
      true
      (t2 -. t1 >= service -. 1e-9)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_fault_drop () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> incr received);
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ -> Netsim.Drop);
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "dropped" 0 !received;
  Alcotest.(check int) "counted" 1 (Netsim.counters net).Netsim.dropped_by_fault;
  Netsim.clear_data_fault net;
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "delivered after clear" 1 !received

let test_fault_duplicate () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> incr received);
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ -> Netsim.Duplicate);
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "two copies" 2 !received

let test_fault_duplicate_no_storm () =
  (* A hook that always answers Duplicate must not amplify: the copy goes
     through the hook once more (so it can be dropped/delayed), but a
     Duplicate verdict on the copy is absorbed as a plain delivery. *)
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 and hook_calls = ref 0 in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> incr received);
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ ->
      incr hook_calls;
      Netsim.Duplicate);
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "exactly two copies" 2 !received;
  Alcotest.(check int) "hook ran twice (original + copy)" 2 !hook_calls;
  Alcotest.(check int) "one duplication counted" 1
    (Netsim.counters net).Netsim.duplicated_by_fault;
  (* The copy can still be dropped. *)
  let received2 = ref 0 in
  let net2 = Netsim.create (Sim.create ()) (line_topo ()) in
  Netsim.attach net2 ~node:1 (fun ~port:_ _ -> incr received2);
  let first = ref true in
  Netsim.set_data_fault net2 (fun ~from:_ ~to_:_ _ ->
      if !first then begin
        first := false;
        Netsim.Duplicate
      end
      else Netsim.Drop);
  Netsim.transmit net2 ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run (Netsim.sim net2) in
  Alcotest.(check int) "copy dropped, original kept" 1 !received2

let test_fault_outcome_counters () =
  let sim = Sim.create ~seed:7 () in
  let net = Netsim.create sim (line_topo ()) in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> ());
  let verdicts = ref [ Netsim.Delay 3.0; Netsim.Corrupt; Netsim.Duplicate; Netsim.Drop ] in
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ ->
      match !verdicts with
      | v :: rest ->
        verdicts := rest;
        v
      | [] -> Netsim.Deliver);
  for _ = 1 to 4 do
    Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x")
  done;
  let _ = Sim.run sim in
  let c = Netsim.counters net in
  Alcotest.(check int) "delayed" 1 c.Netsim.delayed_by_fault;
  Alcotest.(check int) "corrupted" 1 c.Netsim.corrupted_by_fault;
  Alcotest.(check int) "duplicated" 1 c.Netsim.duplicated_by_fault;
  Alcotest.(check int) "dropped" 1 c.Netsim.dropped_by_fault

let test_control_fault_both_directions () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let downlink = ref 0 and uplink = ref 0 in
  Netsim.attach net ~node:0 (fun ~port _ ->
      if port = Netsim.port_controller then incr downlink);
  Netsim.set_controller net (fun ~from:_ _ -> incr uplink);
  let directions = ref [] in
  Netsim.set_control_fault net (fun ~dir _ ->
      directions := dir :: !directions;
      Netsim.Drop);
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "uim");
  Netsim.notify_controller net ~from:2 (Bytes.of_string "ufm");
  let _ = Sim.run sim in
  Alcotest.(check int) "downlink dropped" 0 !downlink;
  Alcotest.(check int) "uplink dropped" 0 !uplink;
  Alcotest.(check int) "both planes counted" 2 (Netsim.counters net).Netsim.dropped_by_fault;
  Alcotest.(check bool) "directions observed" true
    (List.mem (Netsim.To_switch 0) !directions
     && List.mem (Netsim.To_controller 2) !directions);
  Netsim.clear_control_fault net;
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "uim");
  let _ = Sim.run sim in
  Alcotest.(check int) "delivered after clear" 1 !downlink

let test_link_failure_loses_packets () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> incr received);
  let events = ref [] in
  Netsim.on_topology_event net (fun ev -> events := ev :: !events);
  Netsim.fail_link net ~u:0 ~v:1 ~at:10.0;
  Netsim.restore_link net ~u:0 ~v:1 ~at:50.0;
  (* Sent while the link is down: lost. *)
  Sim.schedule_at sim ~time:20.0 (fun () ->
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x"));
  (* Sent just before the failure, still in flight at t=10: also lost. *)
  Sim.schedule_at sim ~time:9.0 (fun () ->
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "y"));
  (* Sent after the restore: delivered. *)
  Sim.schedule_at sim ~time:60.0 (fun () ->
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "z"));
  let _ = Sim.run sim in
  Alcotest.(check int) "only the post-restore packet" 1 !received;
  Alcotest.(check int) "losses counted" 2 (Netsim.counters net).Netsim.dropped_by_failure;
  Alcotest.(check bool) "down then up observed" true
    (List.rev !events = [ Netsim.Link_down (0, 1); Netsim.Link_up (0, 1) ])

let test_node_failure_silences_node () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received_at_1 = ref 0 and uplink = ref 0 in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> incr received_at_1);
  Netsim.set_controller net (fun ~from:_ _ -> incr uplink);
  Netsim.fail_node net ~node:1 ~at:10.0;
  Netsim.restore_node net ~node:1 ~at:50.0;
  Sim.schedule_at sim ~time:20.0 (fun () ->
      (* dead receiver *)
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
      (* dead sender: emits nothing on either plane *)
      Netsim.transmit net ~from:1 ~port:0 (Bytes.of_string "y");
      Netsim.notify_controller net ~from:1 (Bytes.of_string "z");
      Alcotest.(check bool) "node reported down" false (Netsim.node_is_up net ~node:1));
  let _ = Sim.run sim in
  Alcotest.(check int) "nothing delivered to dead node" 0 !received_at_1;
  Alcotest.(check int) "nothing reached controller" 0 !uplink;
  Alcotest.(check bool) "node up after restore" true (Netsim.node_is_up net ~node:1);
  (* x and z are counted as losses; a dead sender (y) emits nothing at all. *)
  Alcotest.(check int) "failure losses counted" 2
    (Netsim.counters net).Netsim.dropped_by_failure

(* A resubmission is a frame in flight like any other: lost, and counted,
   when its node goes down before it comes back round. *)
let test_resubmission_lost_at_dead_node () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref [] in
  Netsim.attach net ~node:1 (fun ~port:_ b -> received := Bytes.to_string b :: !received);
  Netsim.fail_node net ~node:1 ~at:10.0;
  Sim.schedule_at sim ~time:5.0 (fun () -> Netsim.resubmit net ~node:1 (Bytes.of_string "a"));
  Sim.schedule_at sim ~time:9.9 (fun () -> Netsim.resubmit net ~node:1 (Bytes.of_string "b"));
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "only the resubmission before the failure" [ "a" ] !received;
  Alcotest.(check int) "the lost one counted" 1
    (Netsim.counters net).Netsim.dropped_by_failure

let test_observer_sees_delivery () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  Netsim.attach net ~node:1 (fun ~port:_ _ -> ());
  let seen = ref [] in
  Netsim.on_delivery net (fun _time node port bytes ->
      seen := (node, port, Bytes.to_string bytes) :: !seen);
  Netsim.transmit net ~from:2 ~port:0 (Bytes.of_string "hello");
  let _ = Sim.run sim in
  Alcotest.(check (list (triple int int string))) "observed" [ (1, 1, "hello") ] !seen

let test_straggler_distribution () =
  let sim = Sim.create ~seed:123 () in
  let config = { Netsim.default_config with rule_update_mean_ms = Some 100.0 } in
  let net = Netsim.create ~config sim (line_topo ()) in
  let samples = List.init 200 (fun _ -> Netsim.rule_update_delay net ~node:0) in
  let mean = List.fold_left ( +. ) 0.0 samples /. 200.0 in
  Alcotest.(check bool) (Printf.sprintf "mean near 100 (%.1f)" mean) true
    (mean > 75.0 && mean < 130.0);
  Alcotest.(check bool) "all nonnegative" true (List.for_all (fun x -> x >= 0.0) samples);
  let no_straggler = Netsim.create (Sim.create ()) (line_topo ()) in
  Alcotest.(check (float 0.0)) "disabled" 0.0 (Netsim.rule_update_delay no_straggler ~node:0)

let test_control_latency_geo () =
  let net = Netsim.create (Sim.create ()) (line_topo ()) in
  (* controller at node 1: latency to node 0 is the 0-1 link. *)
  Alcotest.(check (float 0.001)) "geo latency" 5.0 (Netsim.control_latency_of net ~node:0);
  Alcotest.(check (float 0.001)) "geo latency 2" 7.0 (Netsim.control_latency_of net ~node:2)

(* Random fail/restore schedules on random topologies against a
   [Hashtbl] model of the down links and an array of down nodes.  Op [i]
   fires at [i + 1.0] ms.  Hops take 0.2 ms, so a frame sent at [i + 0.9]
   is in flight across op [i] and one sent at [i + 1.5] lands before the
   next op. *)
type link_op = Fail_link of int | Restore_link of int | Fail_node of int | Restore_node of int

let link_ops_gen =
  let open QCheck.Gen in
  let* n = int_range 2 7 in
  let pairs = List.concat (List.init n (fun u -> List.init u (fun v -> (v, u)))) in
  let* edges =
    map (List.filter snd) (flatten_l (List.map (fun p -> map (fun b -> (p, b)) bool) pairs))
  in
  let edges = match List.map fst edges with [] -> [ (0, 1) ] | l -> l in
  let ne = List.length edges in
  let op =
    frequency
      [
        (3, map (fun i -> Fail_link i) (int_bound (ne - 1)));
        (3, map (fun i -> Restore_link i) (int_bound (ne - 1)));
        (1, map (fun i -> Fail_node i) (int_bound (n - 1)));
        (1, map (fun i -> Restore_node i) (int_bound (n - 1)));
      ]
  in
  let* ops = list_size (int_range 1 25) op in
  let* sends = list_repeat (List.length ops) (pair (int_bound (ne - 1)) bool) in
  return (n, edges, ops, sends)

let print_link_ops (n, edges, ops, _) =
  Printf.sprintf "n=%d edges=[%s] ops=[%s]" n
    (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
    (String.concat ";"
       (List.map
          (function
            | Fail_link i -> Printf.sprintf "fail-link %d" i
            | Restore_link i -> Printf.sprintf "restore-link %d" i
            | Fail_node i -> Printf.sprintf "fail-node %d" i
            | Restore_node i -> Printf.sprintf "restore-node %d" i)
          ops))

let link_state_matches_model (n, edges, ops, sends) =
  let g = Topo.Graph.create n in
  List.iter (fun (u, v) -> Topo.Graph.add_edge g ~u ~v ~latency_ms:0.1 ~capacity:1.0) edges;
  let topo =
    {
      Topo.Topologies.name = "random";
      kind = Topo.Topologies.Synthetic;
      graph = g;
      node_names = Array.init n string_of_int;
      controller = 0;
    }
  in
  let config =
    { Netsim.default_config with switch_processing_ms = 0.1; control_latency = Netsim.Fixed 1.0 }
  in
  let sim = Sim.create () in
  let net = Netsim.create ~config sim topo in
  let edge = Array.of_list edges in
  let received = ref 0 in
  for node = 0 to n - 1 do
    Netsim.attach net ~node (fun ~port:_ _ -> incr received)
  done;
  let events = ref [] in
  Netsim.on_topology_event net (fun ev -> events := ev :: !events);
  (* The model: states after each op, the topology events they imply,
     and the fate of every probe frame. *)
  let down_links = Hashtbl.create 8 and down_nodes = Array.make n false in
  let key u v = (min u v, max u v) in
  let link_up u v = not (Hashtbl.mem down_links (key u v)) in
  let expected_events = ref [] and ok = ref true in
  let expected_drops = ref 0 and expected_rx = ref 0 in
  (* Fate of a frame u -> v sent now: [`Lost], [`Silent] or [`Sent]. *)
  let send_fate u v =
    if down_nodes.(u) then `Silent
    else if down_nodes.(v) || not (link_up u v) then `Lost
    else `Sent
  in
  let send u v =
    Netsim.transmit net ~from:u
      ~port:(Netsim.port_of_neighbor net ~node:u ~neighbor:v)
      (Bytes.of_string "p")
  in
  List.iteri
    (fun i (op, (send_edge, reverse)) ->
      let u, v = edge.(send_edge) in
      let u, v = if reverse then (v, u) else (u, v) in
      let t = float_of_int i +. 1.0 in
      (* In flight across the op. *)
      let in_flight = send_fate u v in
      Sim.schedule_at sim ~time:(t -. 0.1) (fun () -> send u v);
      (match op with
       | Fail_link e ->
         let a, b = edge.(e) in
         Netsim.fail_link net ~u:a ~v:b ~at:t;
         if link_up a b then begin
           Hashtbl.replace down_links (key a b) ();
           expected_events := Netsim.Link_down (a, b) :: !expected_events
         end
       | Restore_link e ->
         let a, b = edge.(e) in
         Netsim.restore_link net ~u:a ~v:b ~at:t;
         if not (link_up a b) then begin
           Hashtbl.remove down_links (key a b);
           expected_events := Netsim.Link_up (a, b) :: !expected_events
         end
       | Fail_node x ->
         Netsim.fail_node net ~node:x ~at:t;
         if not down_nodes.(x) then begin
           down_nodes.(x) <- true;
           expected_events := Netsim.Node_down x :: !expected_events
         end
       | Restore_node x ->
         Netsim.restore_node net ~node:x ~at:t;
         if down_nodes.(x) then begin
           down_nodes.(x) <- false;
           expected_events := Netsim.Node_up x :: !expected_events
         end);
      (match in_flight with
       | `Silent -> ()
       | `Lost -> incr expected_drops
       | `Sent ->
         (* Lost if the receiver or the link went down under the frame. *)
         if down_nodes.(v) || not (link_up u v) then incr expected_drops else incr expected_rx);
      (* After the op: compare every ordered pair, then send one frame. *)
      let snapshot = Array.init n (fun a -> Array.init n (fun b -> a = b || link_up a b)) in
      (match send_fate u v with
       | `Silent -> ()
       | `Lost -> incr expected_drops
       | `Sent -> incr expected_rx);
      Sim.schedule_at sim ~time:(t +. 0.5) (fun () ->
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              if a <> b then begin
                let up = Netsim.link_is_up net a b in
                if up <> Netsim.link_is_up net b a || up <> snapshot.(a).(b) then ok := false;
                if (not (Topo.Graph.has_edge g a b)) && not up then ok := false
              end
            done
          done;
          send u v))
    (List.combine ops sends);
  let _ = Sim.run sim in
  !ok
  && !events = !expected_events
  && !received = !expected_rx
  && (Netsim.counters net).Netsim.dropped_by_failure = !expected_drops

let prop_link_state_model =
  QCheck.Test.make ~name:"link state = Hashtbl model" ~count:300
    (QCheck.make ~print:print_link_ops link_ops_gen)
    link_state_matches_model

let suite =
  [
    Alcotest.test_case "port numbering" `Quick test_port_numbering;
    Alcotest.test_case "one network per simulation" `Quick test_one_network_per_sim;
    Alcotest.test_case "transmit latency" `Quick test_transmit_latency;
    Alcotest.test_case "unbound port no-op" `Quick test_unbound_port_is_noop;
    Alcotest.test_case "controller FIFO serialization" `Quick test_controller_fifo_serialization;
    Alcotest.test_case "fault: drop" `Quick test_fault_drop;
    Alcotest.test_case "fault: duplicate" `Quick test_fault_duplicate;
    Alcotest.test_case "fault: duplicate does not storm" `Quick test_fault_duplicate_no_storm;
    Alcotest.test_case "fault: outcome counters" `Quick test_fault_outcome_counters;
    Alcotest.test_case "control fault: both directions" `Quick
      test_control_fault_both_directions;
    Alcotest.test_case "link failure loses packets" `Quick test_link_failure_loses_packets;
    Alcotest.test_case "node failure silences node" `Quick test_node_failure_silences_node;
    Alcotest.test_case "resubmission lost at a dead node" `Quick
      test_resubmission_lost_at_dead_node;
    Alcotest.test_case "delivery observer" `Quick test_observer_sees_delivery;
    Alcotest.test_case "straggler distribution" `Quick test_straggler_distribution;
    Alcotest.test_case "geo control latency" `Quick test_control_latency_geo;
    QCheck_alcotest.to_alcotest prop_link_state_model;
  ]
