(* Distance labelling (§3), DL segmentation (§3.2) and the §7.5 choice
   as [Controller.prepare] computes them, and its preparation kernel
   against the list pipeline it replaced ([Prep_oracle]). *)

open P4update

(* A controller on [graph] with stand-in flow 0, so any (old, new) pair
   of the graph can be prepared through [~assume_old_path]. *)
let controller_of ?(controller = 0) graph =
  let topo =
    {
      Topo.Topologies.name = "test";
      kind = Topo.Topologies.Synthetic;
      graph;
      node_names = Array.init (Topo.Graph.node_count graph) string_of_int;
      controller;
    }
  in
  let net = Netsim.create (Dessim.Sim.create ()) topo in
  let ctl = Controller.create net in
  ignore (Controller.register_flow ctl ~flow_id:0 ~src:0 ~dst:0 ~size:100 ~path:[]);
  (net, ctl)

let graph_of n edges =
  let g = Topo.Graph.create n in
  List.iter (fun (u, v) -> Topo.Graph.add_edge g ~u ~v ~latency_ms:1.0 ~capacity:10.0) edges;
  g

let fig1_controller () = snd (controller_of (Topo.Topologies.fig1 ()).Topo.Topologies.graph)

let prepare ctl ?update_type ~old_path new_path =
  Controller.prepare ctl ~flow_id:0 ~new_path ~assume_old_path:old_path ?update_type ()

let segments ctl ~old_path new_path =
  Option.get (prepare ctl ~update_type:Wire.Dl ~old_path new_path).Controller.p_segments

let uim_of (p : Controller.prepared) node = List.assoc node p.Controller.p_uims

let test_distances () =
  let p =
    prepare (fig1_controller ()) ~update_type:Wire.Sl ~old_path:[] Topo.Topologies.fig1_old_path
  in
  Alcotest.(check (list (pair int int))) "hops to egress"
    [ (0, 3); (4, 2); (2, 1); (7, 0) ]
    (List.map (fun (node, u) -> (node, u.Wire.dist_new)) p.Controller.p_uims)

let test_labels_fig1 () =
  let net, ctl = controller_of (Topo.Topologies.fig1 ()).Topo.Topologies.graph in
  let p = prepare ctl ~update_type:Wire.Sl ~old_path:[] Topo.Topologies.fig1_new_path in
  Alcotest.(check int) "eight labels" 8 (List.length p.Controller.p_uims);
  let l0 = uim_of p 0 in
  Alcotest.(check int) "ingress distance 7" 7 l0.Wire.dist_new;
  Alcotest.(check int) "ingress role" Wire.role_flow_ingress l0.Wire.role;
  Alcotest.(check int) "ingress notify none" Wire.port_none l0.Wire.notify_port;
  let l7 = uim_of p 7 in
  Alcotest.(check int) "egress distance 0" 0 l7.Wire.dist_new;
  Alcotest.(check int) "egress role" Wire.role_flow_egress l7.Wire.role;
  Alcotest.(check int) "egress port local" Wire.port_local l7.Wire.egress_port;
  (* forwarding ports point along the path *)
  let l3 = uim_of p 3 in
  Alcotest.(check (option int)) "v3 forwards to v4" (Some 4)
    (Netsim.neighbor_of_port net ~node:3 ~port:l3.Wire.egress_port);
  Alcotest.(check (option int)) "v3 notifies v2" (Some 2)
    (Netsim.neighbor_of_port net ~node:3 ~port:l3.Wire.notify_port)

let test_label_rejects_empty () =
  let ctl = fig1_controller () in
  Alcotest.check_raises "empty" (Invalid_argument "Controller.prepare: empty path") (fun () ->
      ignore (prepare ctl ~update_type:Wire.Sl ~old_path:[] []))

(* The §7.5 choice segments the update, so it checks the endpoints. *)
let test_segment_rejects_mismatched_endpoints () =
  let ctl = fig1_controller () in
  Alcotest.check_raises "ingress" (Invalid_argument "Controller.prepare: ingress mismatch")
    (fun () -> ignore (prepare ctl ~old_path:[ 1; 2 ] [ 0; 1; 2 ]));
  Alcotest.check_raises "egress" (Invalid_argument "Controller.prepare: egress mismatch")
    (fun () -> ignore (prepare ctl ~old_path:[ 0; 1; 2 ] [ 0; 1 ]))

let test_identical_paths_single_forward_chain () =
  let seg = segments (fig1_controller ()) ~old_path:[ 0; 1; 2 ] [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "all gateways" [ 0; 1; 2 ] seg.Segment.gateways;
  Alcotest.(check bool) "all forward" true
    (List.for_all (fun s -> s.Segment.direction = Segment.Forward) seg.Segment.segments)

let test_disjoint_detour_single_segment () =
  (* Old 0-1-2, new 0-3-4-2: only the endpoints are shared. *)
  let _, ctl = controller_of (graph_of 5 [ (0, 1); (1, 2); (0, 3); (3, 4); (4, 2) ]) in
  let seg = segments ctl ~old_path:[ 0; 1; 2 ] [ 0; 3; 4; 2 ] in
  Alcotest.(check (list int)) "gateways are endpoints" [ 0; 2 ] seg.Segment.gateways;
  match seg.Segment.segments with
  | [ s ] ->
    Alcotest.(check (list int)) "interior" [ 3; 4 ] s.Segment.interior;
    Alcotest.(check bool) "forward" true (s.Segment.direction = Segment.Forward)
  | _ -> Alcotest.fail "expected one segment"

let test_annotate_roles () =
  let p =
    prepare (fig1_controller ()) ~update_type:Wire.Dl ~old_path:Topo.Topologies.fig1_old_path
      Topo.Topologies.fig1_new_path
  in
  let role_of n = (uim_of p n).Wire.role in
  Alcotest.(check bool) "v2 is gateway" true (role_of 2 land Wire.role_gateway <> 0);
  Alcotest.(check bool) "v2 is segment egress" true
    (role_of 2 land Wire.role_segment_egress <> 0);
  Alcotest.(check bool) "v1 not gateway" true (role_of 1 land Wire.role_gateway = 0);
  Alcotest.(check bool) "v7 gateway + segment egress + flow egress" true
    (role_of 7 land (Wire.role_gateway lor Wire.role_segment_egress lor Wire.role_flow_egress)
     = Wire.role_gateway lor Wire.role_segment_egress lor Wire.role_flow_egress)

let test_forward_helpers () =
  let seg =
    segments (fig1_controller ()) ~old_path:Topo.Topologies.fig1_old_path
      Topo.Topologies.fig1_new_path
  in
  let forward = List.filter (fun s -> s.Segment.direction = Segment.Forward) seg.Segment.segments in
  Alcotest.(check int) "two forward segments" 2 (List.length forward);
  Alcotest.(check (list int)) "forward interiors" [ 1; 5; 6 ]
    (List.sort compare (List.concat_map (fun s -> s.Segment.interior) forward))

(* Property: on random path pairs, segmentation partitions the new path;
   gateways are exactly the shared nodes; concatenating segments restores
   the path. *)
let path_pair_gen =
  QCheck.Gen.(
    let* seed = int_bound 100_000 in
    return seed)

let random_paths seed =
  let rng = Random.State.make [| seed |] in
  let g = Topo.Graph.create 12 in
  for v = 1 to 11 do
    let u = Random.State.int rng v in
    Topo.Graph.add_edge g ~u ~v ~latency_ms:1.0 ~capacity:10.0
  done;
  for _ = 1 to 10 do
    let u = Random.State.int rng 12 and v = Random.State.int rng 12 in
    if u <> v && not (Topo.Graph.has_edge g u v) then
      Topo.Graph.add_edge g ~u ~v ~latency_ms:1.0 ~capacity:10.0
  done;
  match Topo.Graph.k_shortest_paths g ~src:0 ~dst:11 ~k:2 with
  | [ a; b ] -> Some (snd (controller_of g), a, b)
  | _ -> None

let prop_segment_partition =
  QCheck.Test.make ~name:"segments partition the new path at shared nodes" ~count:200
    (QCheck.make ~print:string_of_int path_pair_gen)
    (fun seed ->
      match random_paths seed with
      | None -> true
      | Some (ctl, old_path, new_path) ->
        let seg = segments ctl ~old_path new_path in
        (* Gateways = shared nodes in new-path order. *)
        let shared = List.filter (fun n -> List.mem n old_path) new_path in
        if seg.Segment.gateways <> shared then false
        else begin
          (* Rebuild the path from the segments. *)
          let rebuilt =
            match seg.Segment.segments with
            | [] -> [ List.hd new_path ]
            | first :: rest ->
              List.fold_left
                (fun acc s ->
                  acc @ s.Segment.interior @ [ s.Segment.egress_gateway ])
                (first.Segment.ingress_gateway :: first.Segment.interior
                 @ [ first.Segment.egress_gateway ])
                rest
          in
          rebuilt = new_path
        end)

let prop_direction_matches_old_distance =
  QCheck.Test.make ~name:"segment direction matches old-distance comparison" ~count:200
    (QCheck.make ~print:string_of_int path_pair_gen)
    (fun seed ->
      match random_paths seed with
      | None -> true
      | Some (ctl, old_path, new_path) ->
        let seg = segments ctl ~old_path new_path in
        let k = List.length old_path - 1 in
        let dist = List.mapi (fun i node -> (node, k - i)) old_path in
        List.for_all
          (fun s ->
            let d_in = List.assoc s.Segment.ingress_gateway dist in
            let d_out = List.assoc s.Segment.egress_gateway dist in
            match s.Segment.direction with
            | Segment.Forward -> d_out < d_in
            | Segment.Backward -> d_out >= d_in)
          seg.Segment.segments)

(* ------------------------------------------------------------------ *)
(* The kernel against the list pipeline                                 *)
(* ------------------------------------------------------------------ *)

(* Three preparation requests to one controller on a random connected
   graph of 2-12 nodes, so a request follows earlier ones, failed ones
   too, on the same scratch index.
   Paths run from [src] to [dst]: a loop-free one (Yen), or a random
   walk (which may repeat nodes) closed by a shortest path.  About one
   request in four is made invalid: unknown flow, empty path, wrong
   ingress or egress, or a non-adjacent hop. *)
type request = {
  rq_ctl : Controller.t;
  rq_net : Netsim.t;
  rq_allow : bool;
  rq_flow : int;
  rq_new : int list;
  rq_type : Wire.update_type option;
  rq_assume : int list option;
  rq_two_phase : bool;
}

let requests_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and coin () = Random.State.bool rng in
  let n = 2 + int 11 in
  let g = Topo.Graph.create n in
  for v = 1 to n - 1 do
    Topo.Graph.add_edge g ~u:(int v) ~v ~latency_ms:1.0 ~capacity:10.0
  done;
  for _ = 1 to int (2 * n) do
    let u = int n and v = int n in
    if u <> v && not (Topo.Graph.has_edge g u v) then
      Topo.Graph.add_edge g ~u ~v ~latency_ms:1.0 ~capacity:10.0
  done;
  let net, ctl = controller_of ~controller:(int n) g in
  let src = int n and dst = int n in
  let path () =
    if coin () then
      let paths = Topo.Graph.k_shortest_paths g ~src ~dst ~k:4 in
      List.nth paths (int (List.length paths))
    else begin
      let rec walk node steps acc =
        if steps = 0 then (node, acc)
        else
          let neighbors = Topo.Graph.neighbors g node in
          walk (List.nth neighbors (int (List.length neighbors))) (steps - 1) (node :: acc)
      in
      let last, rev_prefix = walk src (int 6) [] in
      List.rev_append rev_prefix (Option.get (Topo.Graph.shortest_path g ~src:last ~dst))
    end
  in
  let spoil p =
    match int 16 with
    | 0 -> []
    | 1 -> int n :: p
    | 2 -> p @ [ int n ]
    | 3 ->
      let i = int (List.length p) in
      List.concat (List.mapi (fun j x -> if j = i then [ x; int n ] else [ x ]) p)
    | _ -> p
  in
  let flow =
    Controller.register_flow ctl ~flow_id:1 ~version:(int 5) ~src ~dst ~size:(1 + int 400)
      ~path:(spoil (path ()))
  in
  flow.Controller.last_type <- (if coin () then Wire.Dl else Wire.Sl);
  let allow = coin () in
  Controller.set_allow_consecutive_dl ctl allow;
  List.init 3 (fun _ ->
      {
        rq_ctl = ctl;
        rq_net = net;
        rq_allow = allow;
        rq_flow = (if int 20 = 0 then 2 else 1);
        rq_new = spoil (path ());
        rq_type = (match int 3 with 0 -> Some Wire.Sl | 1 -> Some Wire.Dl | _ -> None);
        rq_assume = (if coin () then Some (spoil (path ())) else None);
        rq_two_phase = coin ();
      })

let outcome f = match f () with p -> Ok p | exception Invalid_argument msg -> Error msg

let kernel rq =
  outcome (fun () ->
      Controller.prepare rq.rq_ctl ~flow_id:rq.rq_flow ~new_path:rq.rq_new ?update_type:rq.rq_type
        ?assume_old_path:rq.rq_assume ~two_phase:rq.rq_two_phase ())

let oracle rq =
  outcome (fun () ->
      Prep_oracle.prepare ~allow_consecutive_dl:rq.rq_allow rq.rq_ctl rq.rq_net
        ~flow_id:rq.rq_flow ~new_path:rq.rq_new ?update_type:rq.rq_type
        ?assume_old_path:rq.rq_assume ~two_phase:rq.rq_two_phase ())

let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"prepare kernel equals the list pipeline" ~count:500
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> List.for_all (fun rq -> kernel rq = oracle rq) (requests_of_seed seed))

(* The requests reach every verdict: both policy choices, backward
   segments and every error. *)
let verdict rq =
  match kernel rq with
  | Error msg when String.starts_with ~prefix:"Netsim.port_of_neighbor: " msg ->
    "non-adjacent hop"
  | Error msg -> msg
  | Ok p ->
    let backward =
      match p.Controller.p_segments with
      | Some seg ->
        List.exists (fun s -> s.Segment.direction = Segment.Backward) seg.Segment.segments
      | None -> false
    in
    (if rq.rq_type = None then "policy " else "")
    ^ (if p.Controller.p_type = Wire.Dl then "DL" else "SL")
    ^ if backward then " backward" else ""

let test_requests_reach_every_verdict () =
  let seen = Hashtbl.create 16 in
  for seed = 0 to 599 do
    List.iter (fun rq -> Hashtbl.replace seen (verdict rq) ()) (requests_of_seed seed)
  done;
  List.iter
    (fun v -> if not (Hashtbl.mem seen v) then Alcotest.failf "no request reached %S" v)
    [
      "policy SL"; "policy DL"; "policy DL backward"; "SL"; "DL backward";
      "Controller.prepare: unknown flow 2"; "Controller.prepare: empty path";
      "Controller.prepare: empty old or new path"; "Controller.prepare: ingress mismatch";
      "Controller.prepare: egress mismatch"; "non-adjacent hop";
    ]

let suite =
  [
    Alcotest.test_case "distance labelling" `Quick test_distances;
    Alcotest.test_case "fig. 1 labels" `Quick test_labels_fig1;
    Alcotest.test_case "empty path rejected" `Quick test_label_rejects_empty;
    Alcotest.test_case "mismatched endpoints rejected" `Quick
      test_segment_rejects_mismatched_endpoints;
    Alcotest.test_case "identical paths all forward" `Quick
      test_identical_paths_single_forward_chain;
    Alcotest.test_case "disjoint detour single segment" `Quick test_disjoint_detour_single_segment;
    Alcotest.test_case "annotate roles" `Quick test_annotate_roles;
    Alcotest.test_case "forward helpers" `Quick test_forward_helpers;
    QCheck_alcotest.to_alcotest prop_segment_partition;
    QCheck_alcotest.to_alcotest prop_direction_matches_old_distance;
    QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
    Alcotest.test_case "kernel requests reach every verdict" `Quick
      test_requests_reach_every_verdict;
  ]
