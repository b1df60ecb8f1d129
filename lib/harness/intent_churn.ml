(* Intent-driven churn: replaces independent Poisson path flips with
   seeded intent-event streams — drain/undrain maintenance cycles and
   rolling TE re-optimization sweeps — compiled incrementally and
   lowered into correlated [prepare_batch] bursts.  Failover storms come
   in through [Netsim.on_topology_event]: every element failure/restore
   the surrounding harness schedules is queued and folded into the next
   burst as compiler events, so the intent plane re-routes around real
   failures while the §11 recovery plane races it.

   Every random draw comes from the world's simulation RNG: a
   [Run_config.seed] fully determines the program, the event stream and
   every emitted update. *)

module Sim = Dessim.Sim
module Graph = Topo.Graph
module Lang = Intent.Lang
module Compiler = Intent.Compiler
module Bridge = Intent.Bridge

(* The program's policy mix and the intent-event mix (see [create]). *)
let ecmp_frac = 0.25
let ecmp_k = 3
let way_frac = 0.25
let demand = 1
let drain_bias = 0.6
let max_drains = 2

type stats = {
  ic_events : int;          (* compiler events applied (intent + topo) *)
  ic_intent_events : int;
  ic_topo_events : int;
  ic_changes : int;         (* flow assignments changed across all diffs *)
  ic_recompiled : int;      (* flows recompiled across all diffs *)
  ic_max_diff : int;        (* largest single-event change count *)
  ic_empty_draws : int;     (* intent draws that produced no-op diffs *)
  ic_installs : int;
  ic_parked : int;
}

type t = {
  world : World.t;
  compiler : Compiler.t;
  bridge : Bridge.t;
  topo_queue : Netsim.topo_event Queue.t;
  mutable active_drains : (int * int) list;
  mutable on_install : (flow_id:int -> unit) option;
  mutable intent_events : int;
  mutable topo_events : int;
  mutable changes : int;
  mutable max_diff : int;
  mutable empty_draws : int;
}

(* ---- program synthesis ------------------------------------------------ *)

let draw_program (w : World.t) g ~flows:n_flows =
  let n = Graph.node_count g in
  let seen = Hashtbl.create 64 in
  let draw_pair ~need_alts =
    let rec go tries =
      if tries > 10_000 then failwith "Intent_churn: no fresh pair found";
      let src = Sim.uniform_int w.World.sim ~bound:n in
      let dst = Sim.uniform_int w.World.sim ~bound:n in
      if src = dst || Hashtbl.mem seen (src, dst) then go (tries + 1)
      else
        match Graph.shortest_path g ~src ~dst with
        | None -> go (tries + 1)
        | Some _ ->
          if
            need_alts
            && List.length (Graph.k_shortest_paths g ~src ~dst ~k:2) < 2
          then go (tries + 1)
          else begin
            Hashtbl.replace seen (src, dst) ();
            (src, dst)
          end
    in
    go 0
  in
  let flows = ref [] in
  for i = 0 to n_flows - 1 do
    let r = Sim.uniform w.World.sim ~bound:1.0 in
    let policy_kind =
      if r < ecmp_frac then `Ecmp
      else if r < ecmp_frac +. way_frac then `Way
      else `Shortest
    in
    let src, dst = draw_pair ~need_alts:(policy_kind = `Ecmp) in
    let policy =
      match policy_kind with
      | `Ecmp -> Lang.Ecmp_spread ecmp_k
      | `Shortest -> Lang.Shortest_path
      | `Way ->
        (* A waypoint off the shortest path models a TE pin; fall back to
           shortest when the draw cannot find a distinct, reachable via. *)
        let rec via tries =
          if tries = 0 then None
          else
            let x = Sim.uniform_int w.World.sim ~bound:n in
            if x <> src && x <> dst && Graph.shortest_path g ~src ~dst:x <> None
            then Some x
            else via (tries - 1)
        in
        (match via 8 with Some x -> Lang.Waypoint x | None -> Lang.Shortest_path)
    in
    let prio = 10 * Sim.uniform_int w.World.sim ~bound:3 in
    flows :=
      {
        Lang.fi_name = Printf.sprintf "i%d" i;
        fi_src = src;
        fi_dst = dst;
        fi_policy = policy;
        fi_priority = prio;
        fi_demand = demand;
      }
      :: !flows
  done;
  { Lang.flows = List.rev !flows; drains = [] }

(* ---- lowering --------------------------------------------------------- *)

let install_cb t ~flow_id ~src ~dst ~size ~path =
  ignore (World.install_flow ~flow_id t.world ~src ~dst ~size ~path);
  match t.on_install with Some f -> f ~flow_id | None -> ()

let retire_cb t ~flow_id =
  P4update.Controller.retire_flow t.world.World.controller ~flow_id

let lower t diff =
  t.changes <- t.changes + List.length diff.Compiler.d_changes;
  t.max_diff <- max t.max_diff (List.length diff.Compiler.d_changes);
  Bridge.lower t.bridge ~program:(Compiler.program t.compiler) ~diff
    ~install:(install_cb t) ~retire:(retire_cb t)

let create ~flows (w : World.t) =
  let g = Netsim.graph w.World.net in
  let program = draw_program w g ~flows in
  let compiler = Compiler.create g program in
  let bridge = Bridge.create () in
  (* Pre-existing (non-intent) flows keep their ids. *)
  List.iter
    (fun (f : P4update.Controller.flow) -> Bridge.reserve bridge f.P4update.Controller.flow_id)
    (World.flows w);
  let t =
    {
      world = w;
      compiler;
      bridge;
      topo_queue = Queue.create ();
      active_drains = [];
      on_install = None;
      intent_events = 0;
      topo_events = 0;
      changes = 0;
      max_diff = 0;
      empty_draws = 0;
    }
  in
  (* Initial installation: the bootstrap diff presents every compiled
     member as fresh, so the same lowering path does first deployment. *)
  ignore (lower t (Compiler.bootstrap_diff compiler));
  Netsim.on_topology_event w.World.net (fun ev -> Queue.add ev t.topo_queue);
  t

let set_on_install t f = t.on_install <- Some f
let program t = Compiler.program t.compiler
let members t = Compiler.member_count t.compiler

(* ---- event stream ----------------------------------------------------- *)

(* Links currently crossed by at least one member path and eligible for a
   drain; sorted for seed-stable selection. *)
let drain_candidates t =
  let used = Hashtbl.create 64 in
  List.iter
    (fun (_, ms) ->
      List.iter
        (fun path ->
          let rec edges = function
            | a :: (b :: _ as rest) ->
              Hashtbl.replace used (Lang.ekey a b) ();
              edges rest
            | _ -> ()
          in
          edges path)
        ms)
    (Compiler.assignment t.compiler);
  List.iter (fun k -> Hashtbl.remove used k) t.active_drains;
  Hashtbl.fold (fun k () acc -> k :: acc) used [] |> List.sort compare

let draw_intent_event t =
  let sim = t.world.World.sim in
  let r = Sim.uniform sim ~bound:1.0 in
  if r < drain_bias then begin
    let want_undrain =
      t.active_drains <> []
      && (List.length t.active_drains >= max_drains
         || Sim.uniform sim ~bound:1.0 < 0.4)
    in
    if want_undrain then begin
      let i = Sim.uniform_int sim ~bound:(List.length t.active_drains) in
      let u, v = List.nth t.active_drains i in
      t.active_drains <- List.filter (fun d -> d <> (u, v)) t.active_drains;
      Some (Compiler.Undrain (u, v))
    end
    else
      match drain_candidates t with
      | [] -> None
      | cands ->
        let u, v = List.nth cands (Sim.uniform_int sim ~bound:(List.length cands)) in
        t.active_drains <- (u, v) :: t.active_drains;
        Some (Compiler.Drain (u, v))
  end
  else begin
    (* Rolling TE sweep: re-pin one unipath flow through a fresh waypoint. *)
    let flows =
      List.filter
        (fun fi -> match fi.Lang.fi_policy with Lang.Ecmp_spread _ -> false | _ -> true)
        (program t).Lang.flows
    in
    match flows with
    | [] -> None
    | flows ->
      let fi = List.nth flows (Sim.uniform_int sim ~bound:(List.length flows)) in
      let g = Compiler.graph t.compiler in
      let n = Graph.node_count g in
      let rec via tries =
        if tries = 0 then None
        else
          let x = Sim.uniform_int sim ~bound:n in
          let current = match fi.Lang.fi_policy with Lang.Waypoint v -> v | _ -> -1 in
          if x <> fi.Lang.fi_src && x <> fi.Lang.fi_dst && x <> current then Some x
          else via (tries - 1)
      in
      (match via 8 with
      | None -> None
      | Some x -> Some (Compiler.Set_flow { fi with Lang.fi_policy = Lang.Waypoint x }))
  end

let topo_to_event = function
  | Netsim.Link_down (u, v) -> Compiler.Link_down (u, v)
  | Netsim.Link_up (u, v) -> Compiler.Link_up (u, v)
  | Netsim.Node_down x -> Compiler.Node_down x
  | Netsim.Node_up x -> Compiler.Node_up x

let burst t =
  let requests = ref [] in
  (* Fold queued element failures/restores in first: the intent plane
     reacts to the same topology the §11 recovery plane sees. *)
  while not (Queue.is_empty t.topo_queue) do
    let ev = topo_to_event (Queue.pop t.topo_queue) in
    t.topo_events <- t.topo_events + 1;
    requests := !requests @ lower t (Compiler.apply t.compiler ev)
  done;
  let rec draw tries =
    if tries = 0 then ()
    else
      match draw_intent_event t with
      | None -> draw (tries - 1)
      | Some ev ->
        t.intent_events <- t.intent_events + 1;
        let reqs = lower t (Compiler.apply t.compiler ev) in
        if reqs = [] then begin
          t.empty_draws <- t.empty_draws + 1;
          draw (tries - 1)
        end
        else requests := !requests @ reqs
  in
  draw 4;
  (* Keep the last request per flow: a topo event and the intent event
     may both have moved the same member inside one burst. *)
  let seen = Hashtbl.create 16 in
  let deduped =
    List.rev !requests
    |> List.filter (fun (id, _) ->
           if Hashtbl.mem seen id then false
           else begin
             Hashtbl.replace seen id ();
             true
           end)
    |> List.rev
  in
  P4update.Controller.prepare_batch t.world.World.controller deduped

let stats t =
  {
    ic_events = Compiler.events_applied t.compiler;
    ic_intent_events = t.intent_events;
    ic_topo_events = t.topo_events;
    ic_changes = t.changes;
    ic_recompiled = Compiler.recompiles t.compiler;
    ic_max_diff = t.max_diff;
    ic_empty_draws = t.empty_draws;
    ic_installs = Bridge.installs t.bridge;
    ic_parked = Bridge.parked t.bridge;
  }
