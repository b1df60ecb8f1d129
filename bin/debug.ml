(* Interactive debug dump for the Fig. 1 scenario.

   All protocol-level output is driven by the Obs trace sink: a listener
   renders span/instant events as they are recorded, so this binary shows
   exactly what `p4update_cli trace` would export — commits, UNM hops,
   verification verdicts, alarms — without bespoke printf hooks.  Pass a
   file name as the first argument to also write the Chrome trace there. *)

open P4update

let render_attrs attrs =
  let rec dedup seen = function
    | [] -> []
    | (k, v) :: rest ->
      if List.mem k seen then dedup seen rest
      else (k, v) :: dedup (k :: seen) rest
  in
  dedup [] attrs
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Obs.Json.to_string v))
  |> String.concat " "

let node_label n = if n < 0 then "ctl" else Printf.sprintf "v%d" n

let install_renderer sink =
  let open_spans : (int, Obs.Trace.span_info) Hashtbl.t = Hashtbl.create 64 in
  Obs.Trace.on_event sink (function
    | Obs.Trace.Span_begin b -> Hashtbl.replace open_spans b.id b
    | Obs.Trace.Span_end { id; ts; attrs } -> (
      match Hashtbl.find_opt open_spans id with
      | Some b ->
        Hashtbl.remove open_spans id;
        Printf.printf "t=%8.2f  %-4s %-12s %s\n" ts (node_label b.node) b.name
          (render_attrs (b.attrs @ attrs))
      | None -> ())
    | Obs.Trace.Instant { name; node; ts; attrs; _ } ->
      Printf.printf "t=%8.2f  %-4s %-12s %s\n" ts (node_label node) name
        (render_attrs attrs))

let dump_uibs sink world ~flow_id =
  for n = 0 to Array.length world.Harness.World.switches - 1 do
    let uib = Switch.uib world.Harness.World.switches.(n) in
    let egress = Uib.egress_port uib flow_id in
    let next =
      match Netsim.neighbor_of_port world.Harness.World.net ~node:n ~port:egress with
      | Some nb -> string_of_int nb
      | None -> if egress = Wire.port_local then "local" else "none"
    in
    Obs.Trace.instant sink ~cat:"debug" "uib.state" ~node:n
      ~attrs:
        [
          Obs.Trace.flow flow_id;
          Obs.Trace.int "ver" (Uib.ver_cur uib flow_id);
          Obs.Trace.str "next" next;
          Obs.Trace.int "label" (Uib.dist_prev uib flow_id);
          Obs.Trace.int "last_type" (Uib.last_type uib flow_id);
        ]
  done

let () =
  let sink = Obs.Trace.create ~exclude:[ "sim"; "net"; "p4rt" ] () in
  install_renderer sink;
  let topo = Topo.Topologies.fig1 () in
  let world = Harness.World.make ~seed:21 ~trace:sink topo in
  Array.iter Switch.enable_consecutive_dl world.switches;
  Controller.set_allow_consecutive_dl world.controller true;
  let flow = Harness.World.install_flow world ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path in
  let configs = [ Topo.Topologies.fig1_new_path; Topo.Topologies.fig1_old_path;
                  Topo.Topologies.fig1_new_path ] in
  List.iteri (fun i new_path ->
      Dessim.Sim.schedule world.sim ~delay:(float_of_int i *. 5.0) (fun () ->
          ignore (Controller.update_flow world.controller ~flow_id:flow.flow_id ~new_path ())))
    configs;
  let stop = ref false in
  while (not !stop) && Dessim.Sim.step world.sim do
    match Harness.Fwdcheck.trace world.net world.switches ~flow_id:flow.flow_id ~src:0 with
    | Harness.Fwdcheck.Reaches_egress _ -> ()
    | o ->
      Obs.Trace.instant sink ~cat:"debug" "fwd.violation"
        ~attrs:
          [
            Obs.Trace.flow flow.flow_id;
            Obs.Trace.str "outcome" (Format.asprintf "%a" Harness.Fwdcheck.pp_outcome o);
          ];
      dump_uibs sink world ~flow_id:flow.flow_id;
      stop := true
  done;
  Printf.printf "-- %d trace events recorded\n" (List.length (Obs.Trace.events sink));
  (if Array.length Sys.argv > 1 then begin
     let oc = open_out Sys.argv.(1) in
     output_string oc (Obs.Trace.to_chrome ~pretty:true (Obs.Trace.events sink));
     close_out oc;
     Printf.printf "-- chrome trace written to %s\n" Sys.argv.(1)
   end)
