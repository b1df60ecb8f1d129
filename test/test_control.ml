(* Sharded control-plane tests (lib/control).

   - qcheck partition invariants on random connected-ish graphs and the
     stock topologies: every switch lands in exactly one domain, every
     path that changes domain crosses a gateway at the boundary, and the
     partition is a pure function of (graph, k, seed).
   - Cross-shard update end-to-end under the Traffic auditor: a burst of
     updates through the sharded coordinator on the fat-tree, including
     cross-domain flows stitched with DL labels at gateways, with zero
     structural or per-packet violations.
   - Determinism pins for shards in {1, 2, 4}: the plane fingerprint
     after an identical workload is stable run to run, and shards = 1 is
     the single controller's fingerprint exactly (the [Plane.single]
     delegation adds nothing). *)

module Graph = Topo.Graph
module Topologies = Topo.Topologies
module Partition = Control.Partition
module Plane = Control.Plane
module World = Harness.World

(* --- partition invariants ------------------------------------------ *)

let topo_gen =
  QCheck.Gen.(
    let* pick = int_bound 3 in
    let build =
      match pick with
      | 0 -> Topologies.fig2
      | 1 -> Topologies.b4
      | 2 -> Topologies.internet2
      | _ -> Topologies.attmpls
    in
    let* k = int_range 1 6 in
    let* seed = int_bound 1000 in
    return (build (), k, seed))

let topo_arb =
  QCheck.make
    ~print:(fun (t, k, seed) ->
      Printf.sprintf "(%s,k=%d,seed=%d)" t.Topologies.name k seed)
    topo_gen

let partition_covers =
  QCheck.Test.make ~name:"every switch is in exactly one domain" ~count:100 topo_arb
    (fun (topo, k, seed) ->
      let g = topo.Topologies.graph in
      let pt = Partition.make ~seed g ~k in
      let n = Graph.node_count g in
      let counted = Array.make (Partition.domains pt) 0 in
      for v = 0 to n - 1 do
        let d = Partition.domain_of pt v in
        if d < 0 || d >= Partition.domains pt then
          QCheck.Test.fail_reportf "node %d in out-of-range domain %d" v d;
        counted.(d) <- counted.(d) + 1
      done;
      (* nodes_of partitions the node set: slices are disjoint and sum to n *)
      let total =
        List.init (Partition.domains pt) (fun d ->
            let nodes = Partition.nodes_of pt d in
            List.iter
              (fun v ->
                if Partition.domain_of pt v <> d then
                  QCheck.Test.fail_reportf "node %d listed in domain %d but owned by %d"
                    v d (Partition.domain_of pt v))
              nodes;
            List.length nodes)
        |> List.fold_left ( + ) 0
      in
      total = n && Array.for_all (fun c -> c > 0) counted)

let crossings_hit_gateways =
  QCheck.Test.make ~name:"every cross-domain path crosses a gateway" ~count:100
    topo_arb (fun (topo, k, seed) ->
      let g = topo.Topologies.graph in
      let pt = Partition.make ~seed g ~k in
      let n = Graph.node_count g in
      let ok = ref true in
      for src = 0 to n - 1 do
        let dst = (src + (n / 2) + 1) mod n in
        if src <> dst then
          match Graph.shortest_path g ~src ~dst with
          | None -> ()
          | Some path ->
            let rec walk = function
              | a :: (b :: _ as rest) ->
                if Partition.domain_of pt a <> Partition.domain_of pt b then begin
                  (* both endpoints of a cross edge are gateways *)
                  if not (Partition.is_gateway pt a && Partition.is_gateway pt b) then
                    ok := false;
                  if not (Partition.crosses pt path) then ok := false
                end;
                walk rest
              | _ -> ()
            in
            walk path
      done;
      !ok)

let partition_deterministic =
  QCheck.Test.make ~name:"partition is a pure function of (graph, k, seed)" ~count:50
    topo_arb (fun (topo, k, seed) ->
      let g = topo.Topologies.graph in
      let a = Partition.make ~seed g ~k and b = Partition.make ~seed g ~k in
      Partition.fingerprint a = Partition.fingerprint b)

(* --- cross-shard updates under the Traffic auditor ------------------ *)

(* A small deterministic workload on the fat-tree: every flow has a
   primary shortest path and an alternative avoiding the primary's
   middle edge; pushed through the plane as one burst while the auditor
   races probes through it. *)
let fat_tree_specs ?(seed = 0xca11) topo count =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  let rng = Random.State.make [| seed |] in
  let seen = Hashtbl.create 64 in
  let specs = ref [] and made = ref 0 in
  while !made < count do
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.replace seen (src, dst) ();
      match Graph.shortest_path g ~src ~dst with
      | Some primary when List.length primary >= 3 ->
        let mid = List.length primary / 2 in
        let a = List.nth primary (mid - 1) and b = List.nth primary mid in
        let edge_ok u v = not ((u = a && v = b) || (u = b && v = a)) in
        (match
           Graph.shortest_path_avoiding g ~src ~dst ~node_ok:(fun _ -> true) ~edge_ok
         with
        | Some alt when alt <> primary ->
          specs := (src, dst, primary, alt) :: !specs;
          incr made
        | _ -> ())
      | _ -> ()
    end
  done;
  List.rev !specs

let sharded_run ~shards ~audit ~topo ~specs ~warm_ms ~stop_ms =
  let w = World.make ~seed:42 ~shards topo in
  List.iteri
    (fun i (src, dst, primary, _) ->
      ignore (World.install_flow ~flow_id:i w ~src ~dst ~size:1 ~path:primary))
    specs;
  let requests = List.mapi (fun i (_, _, _, alt) -> (i, alt)) specs in
  let monitor = Harness.Invariants.create w in
  let tr = if audit then Some (Harness.Traffic.attach w) else None in
  Option.iter
    (fun tr ->
      Harness.Traffic.start tr;
      Harness.Traffic.inject_until tr ~stop_ms)
    tr;
  ignore (World.run ~until:warm_ms w);
  let prepared = Plane.prepare_batch w.World.plane requests in
  List.iter
    (fun (p : P4update.Controller.prepared) ->
      Option.iter
        (fun tr ->
          Harness.Traffic.note_pushed tr ~flow_id:p.P4update.Controller.p_flow
            ~version:p.P4update.Controller.p_version)
        tr;
      Plane.push w.World.plane p)
    prepared;
  ignore (World.run w);
  let audited, audit_violations =
    match tr with
    | None -> (0, 0)
    | Some tr ->
      Harness.Traffic.drain tr;
      let ts = Harness.Traffic.finalize tr in
      (ts.Harness.Traffic.ts_injected, Harness.Traffic.violations ts)
  in
  Harness.Invariants.check_structural monitor (World.flows w);
  (w, List.length prepared, audited, audit_violations, Harness.Invariants.violations monitor)

let sharded_workload ~shards ~audit () =
  let topo = Topologies.fat_tree () in
  let w, pushed, _, audit_violations, structural =
    sharded_run ~shards ~audit ~topo ~specs:(fat_tree_specs topo 40) ~warm_ms:30.0
      ~stop_ms:300.0
  in
  (w, pushed, audit_violations, structural)

let test_cross_shard_audit () =
  List.iter
    (fun shards ->
      let w, pushed, audit, structural = sharded_workload ~shards ~audit:true () in
      Alcotest.(check int)
        (Printf.sprintf "all updates pushed at shards=%d" shards)
        40 pushed;
      Alcotest.(check int)
        (Printf.sprintf "no per-packet violations at shards=%d" shards)
        0 audit;
      Alcotest.(check int)
        (Printf.sprintf "no structural violations at shards=%d" shards)
        0 (List.length structural);
      (* the sharded planes really did split the topology *)
      if shards > 1 then
        Alcotest.(check int)
          (Printf.sprintf "partition has %d domains" shards)
          shards
          (match w.World.partition with
          | Some pt -> Partition.domains pt
          | None -> 0))
    [ 1; 2; 4 ]

(* The larger audit leg, pinned: 150 flows on the K=16 fat-tree.  Every
   shard count audits the same probes; the coordinator routes every
   update and stitches the cross-domain ones. *)
let test_cross_shard_audit_pins () =
  let topo = Topologies.fat_tree ~k:16 () in
  let specs = fat_tree_specs ~seed:0x5eed topo 150 in
  List.iter
    (fun (shards, cross) ->
      let w, pushed, audited, audit, structural =
        sharded_run ~shards ~audit:true ~topo ~specs ~warm_ms:50.0 ~stop_ms:400.0
      in
      let at what = Printf.sprintf "%s at shards=%d" what shards in
      Alcotest.(check int) (at "updates") 150 pushed;
      Alcotest.(check int) (at "audited") 23954 audited;
      Alcotest.(check int) (at "violations") 0 (audit + List.length structural);
      if shards > 1 then begin
        let reg = Netsim.metrics w.World.net in
        let total metric =
          List.fold_left
            (fun acc i ->
              acc + Obs.Metrics.get_count reg (Printf.sprintf "shard.%d.%s" i metric))
            0 (List.init shards Fun.id)
        in
        Alcotest.(check int) (at "routed") 150 (total "routed");
        Alcotest.(check int) (at "cross-domain") cross (total "cross")
      end)
    [ (1, 0); (2, 40); (4, 67) ]

(* At shards > 1 some flows cross domains; the coordinator must stitch
   those with a DL label (version downgrade at the gateway) unless the
   flow's previous update was already DL (sec. 7.5: never two DLs). *)
let test_cross_domain_stitching () =
  let w, _, _, _ = sharded_workload ~shards:4 ~audit:false () in
  let pt = Option.get w.World.partition in
  let crossers =
    List.filter
      (fun (f : P4update.Controller.flow) -> Partition.crosses pt f.P4update.Controller.path)
      (World.flows w)
  in
  Alcotest.(check bool) "workload has cross-domain flows" true (crossers <> []);
  List.iter
    (fun (f : P4update.Controller.flow) ->
      Alcotest.(check bool)
        (Printf.sprintf "cross-domain flow %d got a DL update" f.P4update.Controller.flow_id)
        true
        (f.P4update.Controller.last_type = P4update.Wire.Dl))
    crossers

(* --- determinism pins ---------------------------------------------- *)

(* The plane fingerprint after the canonical workload, per shard count.
   Two properties pinned: (a) stable across runs in this process (the
   workload and partition are pure functions of the seed), and (b) at
   shards = 1 the plane fingerprint IS the single controller's — the
   delegation layer adds no state of its own. *)
let test_fingerprint_determinism () =
  let fp shards =
    let w, _, _, _ = sharded_workload ~shards ~audit:false () in
    Plane.fingerprint w.World.plane
  in
  List.iter
    (fun shards ->
      Alcotest.(check int)
        (Printf.sprintf "fingerprint stable at shards=%d" shards)
        (fp shards) (fp shards))
    [ 1; 2; 4 ];
  let w, _, _, _ = sharded_workload ~shards:1 ~audit:false () in
  Alcotest.(check int) "shards=1 fingerprint is the bare controller's"
    (P4update.Controller.fingerprint w.World.controller)
    (Plane.fingerprint w.World.plane)

(* Distinct shard counts genuinely produce distinct planes (guards
   against a coordinator that silently ignores the partition). *)
let test_shard_counts_distinct () =
  let fp shards =
    let w, _, _, _ = sharded_workload ~shards ~audit:false () in
    Plane.fingerprint w.World.plane
  in
  Alcotest.(check bool) "shards=2 differs from shards=1" true (fp 2 <> fp 1);
  Alcotest.(check bool) "shards=4 differs from shards=2" true (fp 4 <> fp 2)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  qsuite [ partition_covers; crossings_hit_gateways; partition_deterministic ]
  @ [
      Alcotest.test_case "cross-shard updates audited at shards 1/2/4" `Slow
        test_cross_shard_audit;
      Alcotest.test_case "cross-shard audit on the K=16 fat-tree pinned" `Slow
        test_cross_shard_audit_pins;
      Alcotest.test_case "cross-domain flows stitched with DL labels" `Quick
        test_cross_domain_stitching;
      Alcotest.test_case "plane fingerprints deterministic (pins)" `Quick
        test_fingerprint_determinism;
      Alcotest.test_case "shard counts produce distinct planes" `Quick
        test_shard_counts_distinct;
    ]
