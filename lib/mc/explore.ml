(* Stateless DFS over delivery schedules.

   A schedule is the vector of choices made at the branch points of one
   execution: whenever more than one frame delivery is enabled (same
   instant, or within the reorder window of the earliest pending event),
   the explorer picks which fires.  Timers — commit delays, timeouts,
   controller service completions — are never reordered: the earliest
   one runs first, exactly as in the default simulation.  Nor are the
   deliveries already in flight when exploration starts (the pushes a
   scenario makes while it is built): only what the run itself sends
   is a choice point.

   The search is stateless: every schedule re-executes the scenario from
   scratch (the worlds are cheap), so backtracking is just re-running
   with a different prefix.  Three prunings keep the tree tractable:

   - fingerprint pruning: a state (all switch registers + scratch
     tables, controller flow DB, in-flight message multiset) seen before
     with at least as much remaining depth budget and an at-most-equal
     sleep set is not re-explored;
   - sleep sets: after a subtree for delivery [u] is done, sibling
     subtrees need not schedule [u] first if it commutes with their own
     first step.  Two deliveries commute only when they fire at the same
     instant at two distinct switches (time shifts make cross-instant
     reorderings observationally different, so those are always
     explored);
   - bounds: branch-point depth, per-run event cap, schedule cap.

   Violations are the shared Thm. 1-4 probes ({!Harness.Invariants})
   checked after every event, plus convergence to the expected paths for
   scenarios that declare them. *)

module Sim = Dessim.Sim
module World = Harness.World

(* ------------------------------------------------------------------ *)
(* Bounds and statistics                                                *)
(* ------------------------------------------------------------------ *)

type bounds = {
  b_max_depth : int;          (* branch points per schedule *)
  b_max_schedules : int;
  b_por : bool;
}

let default_bounds = { b_max_depth = 400; b_max_schedules = 20_000; b_por = true }

(* Events per execution: the termination net of every run. *)
let max_events = 50_000

type stats = {
  mutable st_schedules : int;       (* executions run to a verdict *)
  mutable st_branch_points : int;   (* choice points encountered (all runs) *)
  mutable st_states : int;          (* distinct fingerprints recorded *)
  mutable st_pruned_visited : int;  (* runs cut at a revisited state *)
  mutable st_pruned_sleep : int;    (* sibling subtrees skipped by sleep sets *)
  mutable st_max_depth_seen : int;
  mutable st_events : int;          (* total events executed *)
  mutable st_truncated : bool;      (* some run hit a depth/event bound *)
}

let make_stats () =
  {
    st_schedules = 0;
    st_branch_points = 0;
    st_states = 0;
    st_pruned_visited = 0;
    st_pruned_sleep = 0;
    st_max_depth_seen = 0;
    st_events = 0;
    st_truncated = false;
  }

(* Schedules avoided per schedule explored: how much smaller sleep-set
   POR made the explored tree. *)
let por_factor st =
  if st.st_schedules = 0 then 1.0
  else
    float_of_int (st.st_schedules + st.st_pruned_sleep)
    /. float_of_int st.st_schedules

(* ------------------------------------------------------------------ *)
(* Candidate identity and commutation                                   *)
(* ------------------------------------------------------------------ *)

(* Stable identity of a pending delivery, valid across replays of the
   same prefix (executions are deterministic, so times and payloads
   coincide), read off the pending frame itself: its kind, the node
   whose state it touches (-1 = the controller), the flow its wire
   header names (-1 when it parses as neither a control nor a data
   frame) and a digest of its bytes. *)
type cand_id = {
  ci_time : float;
  ci_kind : string;
  ci_node : int;
  ci_flow : int;
  ci_hash : int;
}

let kind_name : Sim.frame_kind -> string = function
  | Data -> "data"
  | Inject -> "inject"
  | Resubmit -> "resubmit"
  | Ctl_up -> "ctl.up"
  | Ctl_down -> "ctl.down"

let flow_of bytes =
  match P4update.Wire.control_of_bytes bytes with
  | Some c -> c.P4update.Wire.flow_id
  | None -> (
    match P4update.Wire.data_of_bytes bytes with
    | Some d -> d.P4update.Wire.d_flow_id
    | None -> -1)

let cand_id ~time (fr : Sim.frame_event) =
  {
    ci_time = time;
    ci_kind = kind_name fr.kind;
    ci_node = fr.node;
    ci_flow = flow_of fr.frame;
    ci_hash = Hashtbl.hash fr.frame;
  }

(* Sound commutation: same-instant deliveries at two distinct switches
   touch disjoint state and leave identical timestamps either way.
   Anything involving the controller (node -1) shares the FIFO server;
   cross-instant pairs shift downstream timestamps when swapped. *)
let commutes a b =
  a.ci_time = b.ci_time && a.ci_node >= 0 && b.ci_node >= 0 && a.ci_node <> b.ci_node

let in_sleep sleep id = List.exists (fun u -> u = id) sleep

(* ------------------------------------------------------------------ *)
(* State fingerprint                                                    *)
(* ------------------------------------------------------------------ *)

(* Deliveries with a sequence number up to [setup] were in flight when
   exploration started; they keep their default order and fingerprint
   like timers. *)
let[@inline] choosable ~setup seq frame = if seq > setup then frame else None

let state_fingerprint ~setup (ctx : Scenario.ctx) =
  let w = ctx.Scenario.cx_world in
  let sw =
    Array.fold_left
      (fun acc s -> (acc * 131) lxor P4update.Switch.fingerprint s)
      11 w.World.switches
  in
  let ctl = P4update.Controller.fingerprint w.World.controller in
  let now = Sim.now w.World.sim in
  (* In-flight messages hashed by (time relative to the clock, kind,
     node, flow, bytes digest); timers hash as 0.  The absolute clock is
     excluded so schedules that reach the same protocol state at
     different instants coincide. *)
  let inflight =
    Sim.fold_pending w.World.sim ~init:[] ~f:(fun acc ~time ~seq ~frame ->
        let rel = int_of_float (Float.round ((time -. now) *. 1_000_000.0)) in
        let th =
          match choosable ~setup seq frame with
          | None -> 0
          | Some fr ->
            let c = cand_id ~time fr in
            Hashtbl.hash (c.ci_kind, c.ci_node, c.ci_flow, c.ci_hash)
        in
        Hashtbl.hash (rel, th) :: acc)
    |> List.sort compare
    |> List.fold_left (fun acc x -> (acc * 31) lxor x) 13
  in
  (sw * 1000003) lxor ctl lxor (inflight * 8191)

(* ------------------------------------------------------------------ *)
(* One execution                                                        *)
(* ------------------------------------------------------------------ *)

type branch_info = {
  bi_depth : int;
  bi_pickable : cand_id array; (* frame candidates, FIFO order *)
  bi_sleep : cand_id list;     (* sleep set when this branch was met *)
  bi_chosen : int;             (* index into [bi_pickable] *)
}

type exec_stop = Ran_to_end | Hit_event_cap | Cut_visited | Cut_sleep

type exec_result = {
  ex_stop : exec_stop;
  ex_branches : branch_info list; (* chronological *)
  ex_schedule : int list;         (* chosen pickable index per branch *)
  ex_violation : (string * float) option;
  ex_events : int;
  ex_depth_truncated : bool;      (* a multi-candidate branch past max_depth *)
}

exception Cut of exec_stop

(* [visited] entries: fingerprint -> (sleep set, depth) list.  Prune when
   some stored entry explored from this state with a subset sleep set
   (i.e. at least as many first steps allowed) and at least as much
   remaining depth budget. *)
let visited_prune visited ~fp ~sleep ~depth =
  let entries = try Hashtbl.find visited fp with Not_found -> [] in
  let subsumed (sleep', depth') =
    depth' <= depth && List.for_all (fun u -> in_sleep sleep u) sleep'
  in
  if List.exists subsumed entries then true
  else begin
    Hashtbl.replace visited fp ((sleep, depth) :: entries);
    false
  end

let execute ?visited ?stats ?on_choice ?(cfg = Scenario.default_cfg) ~unsafe sc ~window
    ~por ~max_depth ~prefix () =
  let ctx = Scenario.build ~unsafe sc cfg in
  let w = ctx.Scenario.cx_world in
  let sim = w.World.sim in
  let prefix = Array.of_list prefix in
  let branches = ref [] in
  let depth = ref 0 in
  let sleep = ref [] in
  let depth_truncated = ref false in
  let bump_states () = match stats with Some st -> st.st_states <- st.st_states + 1 | None -> () in
  let bump_branches () =
    match stats with Some st -> st.st_branch_points <- st.st_branch_points + 1 | None -> ()
  in
  let setup = Sim.fold_pending sim ~init:(-1) ~f:(fun acc ~time:_ ~seq ~frame:_ -> max acc seq) in
  let frame_of (c : Sim.candidate) = choosable ~setup c.Sim.c_seq c.Sim.c_frame in
  let chooser ~now:_ (cands : Sim.candidate array) =
    if Option.is_none (frame_of cands.(0)) then begin
      (* A timer or a set-up delivery fires: deterministic, and it may
         interleave with anything — wake every sleeping delivery. *)
      sleep := [];
      0
    end
    else begin
      let picks =
        Array.of_list
          (List.filter_map
             (fun i ->
               let c = cands.(i) in
               Option.map (fun fr -> (i, cand_id ~time:c.Sim.c_time fr)) (frame_of c))
             (List.init (Array.length cands) Fun.id))
      in
      let pick_idx = Array.map fst picks and ids = Array.map snd picks in
      let n = Array.length pick_idx in
      if n = 1 then begin
        let id = ids.(0) in
        sleep := List.filter (fun u -> commutes u id) !sleep;
        pick_idx.(0)
      end
      else begin
        let d = !depth in
        if d >= max_depth then begin
          depth_truncated := true;
          let id = ids.(0) in
          sleep := List.filter (fun u -> commutes u id) !sleep;
          pick_idx.(0)
        end
        else begin
          let chosen_pick =
            if d < Array.length prefix then prefix.(d)
            else begin
              (match visited with
               | Some tbl ->
                 let fp = state_fingerprint ~setup ctx in
                 if visited_prune tbl ~fp ~sleep:!sleep ~depth:d then raise (Cut Cut_visited)
                 else bump_states ()
               | None -> ());
              let rec first j =
                if j >= n then raise (Cut Cut_sleep)
                else if por && in_sleep !sleep ids.(j) then first (j + 1)
                else j
              in
              first 0
            end
          in
          if chosen_pick < 0 || chosen_pick >= n then
            invalid_arg
              (Printf.sprintf "Mc.Explore: schedule index %d of %d at depth %d"
                 chosen_pick n d);
          bump_branches ();
          branches :=
            { bi_depth = d; bi_pickable = ids; bi_sleep = !sleep; bi_chosen = chosen_pick }
            :: !branches;
          let chosen_id = ids.(chosen_pick) in
          (* Siblings the DFS already finished before this choice join
             the child's sleep set (only along explicit prefixes — on
             the default continuation nothing was tried before). *)
          let tried = ref [] in
          if d < Array.length prefix then
            for j = 0 to chosen_pick - 1 do
              if not (por && in_sleep !sleep ids.(j)) then tried := ids.(j) :: !tried
            done;
          sleep := List.filter (fun u -> commutes u chosen_id) (!sleep @ !tried);
          incr depth;
          (match on_choice with
           | Some f -> f ~depth:d ~chosen:chosen_id ~alternatives:n
           | None -> ());
          pick_idx.(chosen_pick)
        end
      end
    end
  in
  Sim.set_chooser ~window sim chooser;
  let violation = ref None in
  let events = ref 0 in
  let stop = ref Ran_to_end in
  (try
     let continue = ref true in
     while !continue do
       if !events >= max_events then begin
         stop := Hit_event_cap;
         continue := false
       end
       else if Sim.now sim > ctx.Scenario.cx_horizon_ms then
         (* Past the scenario horizon: treat as drained (the horizon is
            chosen well past convergence; only periodic timers remain). *)
         continue := false
       else if not (Sim.step sim) then continue := false
       else begin
         incr events;
         Harness.Invariants.check_structural ctx.Scenario.cx_monitor
           ctx.Scenario.cx_flows;
         match Harness.Invariants.violations ctx.Scenario.cx_monitor with
         | [] -> ()
         | v :: _ ->
           violation := Some (v.Harness.Invariants.v_what, v.Harness.Invariants.v_time);
           continue := false
       end
     done
   with Cut r -> stop := r);
  Sim.clear_chooser sim;
  (* Convergence (Thm. 4): only judged on runs that drained naturally. *)
  (if !violation = None && !stop = Ran_to_end then
     match ctx.Scenario.cx_expect with
     | None -> ()
     | Some expected ->
       List.iter
         (fun (flow_id, path) ->
           let f =
             List.find
               (fun (f : P4update.Controller.flow) ->
                 f.P4update.Controller.flow_id = flow_id)
               ctx.Scenario.cx_flows
           in
           match
             Harness.Fwdcheck.trace w.World.net w.World.switches ~flow_id
               ~src:f.P4update.Controller.src
           with
           | Harness.Fwdcheck.Reaches_egress p when p = path -> ()
           | outcome ->
             if !violation = None then
               violation :=
                 Some
                   ( Printf.sprintf "flow %d did not converge to [%s]: %s" flow_id
                       (String.concat ";" (List.map string_of_int path))
                       (Format.asprintf "%a" Harness.Fwdcheck.pp_outcome outcome),
                     Sim.now sim ))
         expected);
  (match stats with
   | Some st ->
     st.st_events <- st.st_events + !events;
     st.st_max_depth_seen <- max st.st_max_depth_seen !depth;
     if !depth_truncated || !stop = Hit_event_cap then st.st_truncated <- true
   | None -> ());
  let branches = List.rev !branches in
  {
    ex_stop = !stop;
    ex_branches = branches;
    ex_schedule = List.map (fun b -> b.bi_chosen) branches;
    ex_violation = !violation;
    ex_events = !events;
    ex_depth_truncated = !depth_truncated;
  }

(* ------------------------------------------------------------------ *)
(* DFS                                                                  *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  cex_schedule : int list;
  cex_what : string;
  cex_time : float;
}

type verdict =
  | Verified_exhaustive  (** every schedule within the bounds explored *)
  | Verified_bounded     (** no violation, but a cap was hit *)
  | Found of counterexample

type result = {
  r_scenario : string;
  r_window_ms : float;
  r_verdict : verdict;
  r_stats : stats;
}

let take n l = List.filteri (fun i _ -> i < n) l

(* The DFS: stops at the first violation (unminimized) or when the
   schedule space within the bounds is exhausted. *)
let explore ?(bounds = default_bounds) ?(cfg = Scenario.default_cfg) ~unsafe sc =
  let window = Scenario.window_of cfg sc in
  let stats = make_stats () in
  let visited = Hashtbl.create 4096 in
  let counterexample = ref None in
  let capped = ref false in
  let rec go prefix =
    if !counterexample <> None then ()
    else if stats.st_schedules >= bounds.b_max_schedules then capped := true
    else begin
      stats.st_schedules <- stats.st_schedules + 1;
      let r =
        execute ~visited ~stats ~cfg ~unsafe sc ~window ~por:bounds.b_por
          ~max_depth:bounds.b_max_depth ~prefix ()
      in
      (match r.ex_stop with
       | Cut_visited -> stats.st_pruned_visited <- stats.st_pruned_visited + 1
       | _ -> ());
      match r.ex_violation with
      | Some (what, time) ->
        counterexample := Some { cex_schedule = r.ex_schedule; cex_what = what; cex_time = time }
      | None ->
        (* Alternatives at the branch points this run discovered beyond
           its prefix, deepest first. *)
        let plen = List.length prefix in
        let own = List.filter (fun b -> b.bi_depth >= plen) r.ex_branches in
        List.iter
          (fun b ->
            let n = Array.length b.bi_pickable in
            for j = b.bi_chosen + 1 to n - 1 do
              if !counterexample = None then begin
                if bounds.b_por && in_sleep b.bi_sleep b.bi_pickable.(j) then
                  stats.st_pruned_sleep <- stats.st_pruned_sleep + 1
                else go (take b.bi_depth r.ex_schedule @ [ j ])
              end
            done)
          (List.rev own)
    end
  in
  go [];
  let verdict =
    match !counterexample with
    | Some cex -> Found cex
    | None ->
      if !capped || stats.st_truncated then Verified_bounded else Verified_exhaustive
  in
  { r_scenario = sc.Scenario.sc_name; r_window_ms = window; r_verdict = verdict;
    r_stats = stats }

(* ------------------------------------------------------------------ *)
(* Counterexample minimization (delta debugging over choice indices)    *)
(* ------------------------------------------------------------------ *)

let still_fails ~cfg ~unsafe sc ~window vec =
  let r =
    execute ~cfg ~unsafe sc ~window ~por:false ~max_depth:max_int ~prefix:vec ()
  in
  r.ex_violation <> None

(* Greedily reset choices to the default (index 0) while the violation
   persists, then drop the all-default tail.  Each probe is one replay. *)
let minimize ~cfg ~unsafe sc ~window vec =
  let vec = ref (Array.of_list vec) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun d v ->
        if v <> 0 then begin
          let candidate = Array.copy !vec in
          candidate.(d) <- 0;
          if still_fails ~cfg ~unsafe sc ~window (Array.to_list candidate)
          then begin
            vec := candidate;
            changed := true
          end
        end)
      !vec
  done;
  (* Trim the all-default suffix: trailing zeros are what the scheduler
     does anyway. *)
  let l = Array.to_list !vec in
  let rec trim = function 0 :: tl -> trim tl | l -> List.rev l in
  trim (List.rev l)

(* ------------------------------------------------------------------ *)
(* Deterministic replay with tracing                                    *)
(* ------------------------------------------------------------------ *)

(* Re-run one schedule with the world's simulation recording into
   [sink]; every choice point becomes an ["mc.choice"] instant in category
   ["mc"], on top of the regular cross-layer instrumentation, so the
   counterexample loads into Perfetto with the scheduling decisions
   visible. *)
let replay ?(cfg = Scenario.default_cfg) ?(unsafe = false) sc ~window vec sink =
  let cfg = { cfg with Harness.Run_config.trace_sink = Some sink } in
  let r =
    execute ~cfg ~unsafe sc ~window ~por:false ~max_depth:max_int ~prefix:vec
      ~on_choice:(fun ~depth ~chosen ~alternatives ->
        Obs.Trace.instant sink ~cat:"mc" "mc.choice" ~node:chosen.ci_node
          ~attrs:
            [
              Obs.Trace.int "depth" depth;
              Obs.Trace.str "kind" chosen.ci_kind;
              Obs.Trace.flow chosen.ci_flow;
              Obs.Trace.int "alternatives" alternatives;
            ])
      ()
  in
  match r.ex_violation with
  | Some (what, _) ->
    Obs.Trace.instant sink ~cat:"mc" "mc.violation" ~attrs:[ Obs.Trace.str "what" what ]
  | None -> ()

(* ------------------------------------------------------------------ *)
(* One-call check: explore, then minimize any counterexample            *)
(* ------------------------------------------------------------------ *)

let check ?(bounds = default_bounds) ?(cfg = Scenario.default_cfg) ?(unsafe = false) sc =
  let r = explore ~bounds ~cfg ~unsafe sc in
  match r.r_verdict with
  | Found cex ->
    let minimized = minimize ~cfg ~unsafe sc ~window:r.r_window_ms cex.cex_schedule in
    { r with r_verdict = Found { cex with cex_schedule = minimized } }
  | _ -> r

let verdict_line r =
  let st = r.r_stats in
  let head =
    match r.r_verdict with
    | Verified_exhaustive -> "verified (exhaustive within window)"
    | Verified_bounded -> "no violation found (bounds hit)"
    | Found cex ->
      Printf.sprintf "VIOLATION at t=%.2fms: %s [schedule: %s]" cex.cex_time
        cex.cex_what
        (String.concat "," (List.map string_of_int cex.cex_schedule))
  in
  Printf.sprintf
    "mc %-16s window=%.1fms: %s | schedules=%d states=%d branch-points=%d \
     pruned(visited=%d sleep=%d) por-factor=%.2fx max-depth=%d events=%d"
    r.r_scenario r.r_window_ms head st.st_schedules st.st_states st.st_branch_points
    st.st_pruned_visited st.st_pruned_sleep (por_factor st) st.st_max_depth_seen
    st.st_events
