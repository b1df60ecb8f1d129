(* Rapid reconfiguration: a controller under churn pushes a burst of
   route changes for the same flow without waiting for any of them to
   finish.  P4Update's version numbers let every switch fast-forward to
   the latest configuration (§4.2), and with the Appendix C extension
   even consecutive dual-layer updates need no single-layer round in
   between.  Throughout the burst the data plane stays loop- and
   blackhole-free — checked after every simulation event.

   Run with: dune exec examples/rapid_reconfiguration.exe *)

open P4update

let () =
  let topo = Topo.Topologies.fig1 () in
  let world = Harness.World.make ~seed:21 topo in
  Array.iter Switch.enable_consecutive_dl world.switches;
  Controller.set_allow_consecutive_dl world.controller true;

  let flow =
    Harness.World.install_flow world ~src:0 ~dst:7 ~size:100
      ~path:Topo.Topologies.fig1_old_path
  in
  (* Count the notifications that report a superseded or rejected chain. *)
  let stale_chains = ref 0 in
  Controller.on_report world.controller (fun r ->
      if r.Controller.r_status <> Wire.ufm_success then incr stale_chains);
  (* Three configurations pushed 5 ms apart, each before the previous one
     could possibly finish (links are 20 ms). *)
  let configs =
    [ Topo.Topologies.fig1_new_path; Topo.Topologies.fig1_old_path;
      Topo.Topologies.fig1_new_path ]
  in
  let last_version = ref 0 in
  List.iteri
    (fun i new_path ->
      Dessim.Sim.schedule world.sim ~delay:(float_of_int i *. 5.0) (fun () ->
          last_version :=
            Controller.update_flow world.controller ~flow_id:flow.flow_id ~new_path ();
          Printf.printf "t=%5.1f ms  pushed version %d: [%s]\n" (Dessim.Sim.now world.sim)
            !last_version
            (String.concat " -> " (List.map string_of_int new_path))))
    configs;

  (* Check consistency after every single event. *)
  let events = ref 0 and violations = ref 0 in
  while Dessim.Sim.step world.sim do
    incr events;
    match Harness.Fwdcheck.trace world.net world.switches ~flow_id:flow.flow_id ~src:0 with
    | Harness.Fwdcheck.Reaches_egress _ -> ()
    | o ->
      incr violations;
      Format.printf "INCONSISTENT: %a@." Harness.Fwdcheck.pp_outcome o
  done;
  Printf.printf "\n%d events processed, %d consistency violations\n" !events !violations;

  (match
     Controller.completion_time world.controller ~flow_id:flow.flow_id
       ~version:!last_version
   with
   | Some t -> Printf.printf "latest version %d completed at t=%.1f ms\n" !last_version t
   | None -> print_endline "latest version did not complete!");

  (* Versions only ever increased, and everyone ended on the latest. *)
  List.iter
    (fun node ->
      Printf.printf "  switch v%d finished at version %d\n" node
        (Switch.version_of world.switches.(node) ~flow_id:flow.flow_id))
    Topo.Topologies.fig1_new_path;

  Printf.printf "superseded/rejected notifications reported to the controller: %d\n"
    !stale_chains
