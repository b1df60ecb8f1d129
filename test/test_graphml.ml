(* Tests for the Topology Zoo GraphML importer. *)

(* A small GraphML document in the Topology Zoo style. *)
let sample =
  {|<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <!-- a three-node triangle with coordinates -->
  <key attr.name="Latitude" attr.type="double" for="node" id="d1" />
  <key attr.name="Longitude" attr.type="double" for="node" id="d2" />
  <key attr.name="label" attr.type="string" for="node" id="d3" />
  <graph edgedefault="undirected">
    <node id="0">
      <data key="d3">Berlin</data>
      <data key="d1">52.52</data>
      <data key="d2">13.40</data>
    </node>
    <node id="1">
      <data key="d3">Munich</data>
      <data key="d1">48.14</data>
      <data key="d2">11.58</data>
    </node>
    <node id="2">
      <data key="d3">Hamburg &amp; Altona</data>
      <data key="d1">53.55</data>
      <data key="d2">9.99</data>
    </node>
    <edge source="0" target="1" />
    <edge source="1" target="2" />
    <edge source="2" target="0" />
    <edge source="0" target="2" />
    <edge source="1" target="1" />
  </graph>
</graphml>|}

let test_parse_nodes_and_edges () =
  let parsed = Topo.Graphml.parse_string sample in
  Alcotest.(check int) "three nodes" 3 (List.length parsed.Topo.Graphml.g_nodes);
  Alcotest.(check int) "five raw edges" 5 (List.length parsed.Topo.Graphml.g_edges);
  let berlin = List.hd parsed.Topo.Graphml.g_nodes in
  Alcotest.(check string) "label" "Berlin" berlin.Topo.Graphml.gn_label;
  (match berlin.Topo.Graphml.gn_coords with
   | Some (lat, lon) ->
     Alcotest.(check (float 0.001)) "latitude" 52.52 lat;
     Alcotest.(check (float 0.001)) "longitude" 13.40 lon
   | None -> Alcotest.fail "coordinates missing");
  let hamburg = List.nth parsed.Topo.Graphml.g_nodes 2 in
  Alcotest.(check string) "entity unescaped" "Hamburg & Altona" hamburg.Topo.Graphml.gn_label

let test_to_topology () =
  let topo =
    Topo.Graphml.to_topology ~name:"triangle" (Topo.Graphml.parse_string sample)
  in
  let g = topo.Topo.Topologies.graph in
  Alcotest.(check int) "nodes" 3 (Topo.Graph.node_count g);
  (* self loop and duplicate dropped *)
  Alcotest.(check int) "edges deduplicated" 3 (Topo.Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected g);
  (* Berlin - Munich is about 500 km: latency near 2.5 ms. *)
  let latency = Topo.Graph.latency g 0 1 in
  Alcotest.(check bool) (Printf.sprintf "geo latency plausible (%.2f)" latency) true
    (latency > 2.0 && latency < 3.2)

let test_runs_update_on_imported_topology () =
  (* The imported topology is a first-class citizen: run a full P4Update
     cycle on it. *)
  let topo = Topo.Graphml.to_topology ~name:"triangle" (Topo.Graphml.parse_string sample) in
  let w = Harness.World.make topo in
  let flow = Harness.World.install_flow w ~src:0 ~dst:1 ~size:100 ~path:[ 0; 1 ] in
  let version =
    P4update.Controller.update_flow w.controller ~flow_id:flow.flow_id ~new_path:[ 0; 2; 1 ] ()
  in
  let _ = Harness.World.run w in
  Alcotest.(check bool) "update completed" true
    (P4update.Controller.completion_time w.controller ~flow_id:flow.flow_id ~version <> None)

let test_malformed_rejected () =
  Alcotest.check_raises "unterminated tag" (Topo.Graphml.Parse_error "unterminated tag")
    (fun () -> ignore (Topo.Graphml.parse_string "<graphml><node id=\"0\""));
  Alcotest.check_raises "edge endpoints" (Topo.Graphml.Parse_error "edge without endpoints")
    (fun () -> ignore (Topo.Graphml.parse_string "<graphml><edge source=\"0\" /></graphml>"))

let test_disconnected_rejected () =
  let doc =
    {|<graphml><graph>
        <node id="a" /><node id="b" /><node id="c" />
        <edge source="a" target="b" />
      </graph></graphml>|}
  in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Graphml.to_topology: graph is not connected")
    (fun () -> ignore (Topo.Graphml.to_topology ~name:"x" (Topo.Graphml.parse_string doc)))

(* Two nodes joined by one edge; node "a" sits at ([lat], [lon]). *)
let pair_doc ~lat ~lon =
  Printf.sprintf
    {|<graphml>
  <key attr.name="Latitude" for="node" id="d1" />
  <key attr.name="Longitude" for="node" id="d2" />
  <graph>
    <node id="a"><data key="d1">%s</data><data key="d2">%s</data></node>
    <node id="b"><data key="d1">48.14</data><data key="d2">11.58</data></node>
    <edge source="a" target="b" />
  </graph>
</graphml>|}
    lat lon

let test_bad_coordinates_absent () =
  (* Coordinates that are not a point on the globe count as absent, so
     the edge takes the default latency instead of a NaN one (which a
     frame on that link would later hand to [Sim.schedule]). *)
  List.iter
    (fun (lat, lon) ->
      let parsed = Topo.Graphml.parse_string (pair_doc ~lat ~lon) in
      let a = List.hd parsed.Topo.Graphml.g_nodes in
      Alcotest.(check bool) (Printf.sprintf "(%s, %s) absent" lat lon) true
        (a.Topo.Graphml.gn_coords = None);
      let topo = Topo.Graphml.to_topology ~default_latency_ms:7.0 ~name:"pair" parsed in
      Alcotest.(check (float 0.0)) "default latency" 7.0
        (Topo.Graph.latency topo.Topo.Topologies.graph 0 1))
    [ ("nan", "13.40"); ("52.52", "nan"); ("inf", "13.40"); ("-inf", "13.40");
      ("1e308", "13.40"); ("90.5", "13.40"); ("52.52", "-180.5") ];
  let parsed = Topo.Graphml.parse_string (pair_doc ~lat:"-90" ~lon:"180") in
  Alcotest.(check bool) "range bounds are valid coordinates" true
    ((List.hd parsed.Topo.Graphml.g_nodes).Topo.Graphml.gn_coords = Some (-90.0, 180.0))

(* Hostile inputs: random bytes, truncations and byte mutations of
   [sample], and the two-node document with adversarial numerals in
   place of its coordinates. *)
let garbage_gen =
  let open QCheck.Gen in
  let n = String.length sample in
  let numeral =
    oneofa
      [| "nan"; "-nan"; "inf"; "-inf"; "1e308"; "-1e308"; "0x1p1023"; "91"; "-181";
         "4.9e-324"; ""; "52.52"; "13.40" |]
  in
  oneof
    [
      string_size (int_bound 300);
      map (fun len -> String.sub sample 0 len) (int_bound n);
      map
        (fun edits ->
          let b = Bytes.of_string sample in
          List.iter (fun (i, c) -> Bytes.set b (i mod n) c) edits;
          Bytes.to_string b)
        (list_size (int_range 1 8) (pair nat char));
      map2 (fun lat lon -> pair_doc ~lat ~lon) numeral numeral;
    ]

let prop_garbage_never_raises =
  QCheck.Test.make ~name:"importer never raises on garbage" ~count:500
    (QCheck.make ~print:String.escaped garbage_gen)
    (fun s ->
      match Topo.Graphml.parse_string s with
      | exception Topo.Graphml.Parse_error _ -> true
      | parsed -> (
        match Topo.Graphml.to_topology ~name:"garbage" parsed with
        | exception (Topo.Graphml.Parse_error _ | Invalid_argument _) -> true
        | topo ->
          List.for_all
            (fun e -> Float.is_finite e.Topo.Graph.latency_ms && e.Topo.Graph.latency_ms >= 0.0)
            (Topo.Graph.edges topo.Topo.Topologies.graph)))

let suite =
  [
    Alcotest.test_case "parse nodes and edges" `Quick test_parse_nodes_and_edges;
    Alcotest.test_case "to_topology" `Quick test_to_topology;
    Alcotest.test_case "update on imported topology" `Quick test_runs_update_on_imported_topology;
    Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "disconnected rejected" `Quick test_disconnected_rejected;
    Alcotest.test_case "bad coordinates count as absent" `Quick test_bad_coordinates_absent;
    QCheck_alcotest.to_alcotest prop_garbage_never_raises;
  ]
