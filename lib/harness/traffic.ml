(* Live traffic engine with per-packet consistency auditing.

   The engine injects a sustained stream of per-flow probe packets at
   each flow's ingress (Poisson or constant-rate gaps, drawn from the
   world's simulation RNG so a seed fully determines the packet
   schedule) while updates race through the data plane, and audits every
   packet's actual trajectory: [Netsim.on_delivery] records each link
   hop, and the [Switch.on_deliver] egress hook records where (and when)
   the packet left the network.

   Classification — the empirical per-packet consistency check.  A flow
   accumulates a version history [{v; path_v; dl_v}; ...]: its installed
   path at admission plus one entry per pushed update, each tagged with
   the update's type.  For a delivered packet, each trajectory edge has
   a feasible-version set {v | edge in path_v}; the packet is consistent
   iff a version assignment exists along its hops where the version
   never decreases — except out of a dual-layer version.  The monotone
   part is what P4Update's downstream-first commit order guarantees: a
   packet may legally cross from an old-path prefix to a new-path suffix
   at a node that committed before its ingress did (versions go up along
   the trajectory), but under a single-layer update can never meet a
   version downgrade — that would mean an upstream node switched before
   its own downstream was ready, the inconsistency Alg. 1's local
   verification rules out.  Dual-layer updates (Alg. 2) deliberately
   relax this: a packet that entered a committed new-path segment exits
   at the segment's gateway back onto the old path — a version downgrade
   that is still consistent, because DL's per-segment distance labels
   guarantee loop and blackhole freedom rather than version
   monotonicity.  Loops and blackholes are audited separately on every
   packet, so the relaxation masks nothing.  Hence:

   - [Old_path]   a consistent assignment exists using only versions <=
                  the controller version at injection time;
   - [New_path]   a consistent assignment exists but needs a later
                  version (the packet rode an update's switchover);
   - [Mixed]      no consistent assignment (an illegal version
                  downgrade), or the packet was delivered at a node
                  other than the flow's destination — a true violation;
   - [Loop]       a directed edge repeats in the trajectory: the packet
                  re-traversed a hop it already took, which no sequence
                  of forward version switches can explain — some FIB
                  instant cycled it back;
   - [Blackhole]  never delivered by the time the plane drained.

   A node revisit with two different outgoing edges is NOT flagged as a
   loop by itself: bottom-up installation permits it.  If the old path
   is [..a,x,b..] and the new path [..c,x,a..], a packet can leave x on
   the old rule, and while it transits a downstream node flips, routing
   it back through x on the new rule — two FIB instants, each loop-free
   (exactly the switchover ride [New_path] describes).  Such a revisit
   must still admit a monotone version assignment; otherwise it counts
   as [Mixed].  A genuine forwarding loop cycles on one instant's rules
   and therefore repeats an edge.

   Absent injected faults, a correct update plane yields zero Mixed,
   Loop and Blackhole packets at any update rate. *)

module Sim = Dessim.Sim

type workload = {
  tw_mean_gap_ms : float;  (* per-flow mean inter-packet gap *)
  tw_poisson : bool;       (* exponential gaps; false = constant rate *)
  tw_stop_ms : float;      (* injection stops at this simulated time *)
  tw_ttl : int;
}

let default_workload =
  { tw_mean_gap_ms = 2.5; tw_poisson = true; tw_stop_ms = 800.0; tw_ttl = 64 }

type outcome = Old_path | New_path | Mixed | Loop | Blackhole

let outcome_to_int = function
  | Old_path -> 0 | New_path -> 1 | Mixed -> 2 | Loop -> 3 | Blackhole -> 4

let outcome_name = function
  | Old_path -> "old-path" | New_path -> "new-path" | Mixed -> "mixed"
  | Loop -> "loop" | Blackhole -> "blackhole"

type summary = {
  ts_injected : int;
  ts_delivered : int;
  ts_dropped : int;         (* injected - delivered *)
  ts_reordered : int;       (* delivered behind a later packet of the flow *)
  ts_old_path : int;
  ts_new_path : int;
  ts_mixed : int;
  ts_loops : int;
  ts_blackholes : int;
  ts_excused : int;         (* blackholes waived by a drain excuse predicate *)
  ts_p50_ms : float;        (* delivery latency percentiles *)
  ts_p99_ms : float;
  ts_sim_ms : float;        (* simulated time at finalize *)
  ts_wall_s : float;        (* wall time of the run, when the caller timed it *)
  ts_pkts_per_s : float;    (* injected per wall second (0 when untimed) *)
  ts_digest : int;          (* per-packet outcome digest, seq order *)
}

(* Mixed, loops and blackholes violate per-packet consistency; old/new
   path and reordering (which mixing update-speed paths legally causes)
   do not. *)
let violations s = s.ts_mixed + s.ts_loops + s.ts_blackholes

(* ---- internal state -------------------------------------------------- *)

(* One probe in flight (or finished). *)
type pkt = {
  pk_flow : int;
  pk_seq : int;
  pk_dst : int;
  pk_version_at_inject : int; (* controller version of the flow at injection *)
  pk_injected_at : float;     (* simulated injection instant *)
  mutable pk_hops : int list; (* visited nodes, newest first *)
  mutable pk_delivered_at : int; (* node, -1 while undelivered *)
  mutable pk_latency_ms : float; (* wire-carried ingress timestamp delta *)
}

(* One entry of a flow's version history. *)
type vrec = {
  vr_version : int;
  vr_edges : int list;         (* directed edges of that version's path, see [edge] *)
  vr_dl : bool;                (* the update installing it was dual-layer *)
}

(* Per-flow audit state. *)
type flow_state = {
  fl_src : int;
  fl_dst : int;
  mutable fl_history : vrec list; (* oldest first *)
  mutable fl_version : int;   (* current controller version *)
  mutable fl_last_seq : int;  (* highest seq delivered so far (reordering) *)
  mutable fl_injecting : bool;
}

type t = {
  world : World.t;
  wl : workload;
  mutable stop_ms : float;       (* injectors stop at this simulated time *)
  flows : (int, flow_state) Hashtbl.t;
  flight : (int, pkt) Hashtbl.t; (* seq -> packet, kept until drained *)
  mutable next_seq : int;
  mutable reordered : int;
  (* incremental drain accumulators (seq order, so the digest is
     independent of table iteration order and of drain batching) *)
  mutable drained_upto : int;    (* every seq below this is accounted for *)
  acc_counts : int array;        (* per-outcome totals *)
  mutable acc_excused : int;
  mutable acc_latencies : float list;
  mutable acc_digest : int;
  (* metric handles in the network's registry *)
  m_injected : Obs.Metrics.counter;
  m_delivered : Obs.Metrics.counter;
  m_reordered : Obs.Metrics.counter;
  m_latency : Obs.Metrics.histogram;
}

(* A directed edge a -> b as one int, so the audit compares edges with
   integer equality instead of polymorphic compare on tuples.  Node ids
   stay below 2^20 in every topology this repository builds. *)
let[@inline] edge a b = (a lsl 20) lor b

let rec edges_of_path = function
  | a :: (b :: _ as rest) -> edge a b :: edges_of_path rest
  | _ -> []

let rec mem_edge e = function [] -> false | x :: rest -> Int.equal x e || mem_edge e rest

let record_version st ~version ~path ~dl =
  st.fl_version <- version;
  (* Idempotent per version. *)
  if not (List.exists (fun r -> r.vr_version = version) st.fl_history) then
    st.fl_history <-
      st.fl_history @ [ { vr_version = version; vr_edges = edges_of_path path; vr_dl = dl } ]

let flow_state_of (f : P4update.Controller.flow) =
  let st =
    {
      fl_src = f.P4update.Controller.src;
      fl_dst = f.P4update.Controller.dst;
      fl_history = [];
      fl_version = f.P4update.Controller.version;
      fl_last_seq = -1;
      fl_injecting = false;
    }
  in
  record_version st ~version:f.P4update.Controller.version
    ~path:f.P4update.Controller.path
    ~dl:(f.P4update.Controller.last_type = P4update.Wire.Dl);
  st

(* ---- delivery hooks -------------------------------------------------- *)

(* A link-hop of one of our probes: append the receiving node. *)
let on_hop t _time node _port bytes =
  match P4update.Wire.data_of_bytes bytes with
  | Some d -> (
    match Hashtbl.find_opt t.flight d.P4update.Wire.seq with
    | Some pk when pk.pk_flow = d.P4update.Wire.d_flow_id ->
      pk.pk_hops <- node :: pk.pk_hops
    | Some _ | None -> ())
  | None -> ()

(* Egress: the packet left the network at [node]. *)
let on_egress t node ~time (d : P4update.Wire.data) =
  match Hashtbl.find_opt t.flight d.P4update.Wire.seq with
  | Some pk when pk.pk_flow = d.P4update.Wire.d_flow_id && pk.pk_delivered_at < 0 ->
    pk.pk_delivered_at <- node;
    (* Latency from the wire-carried ingress timestamp (µs). *)
    pk.pk_latency_ms <- time -. (float_of_int d.P4update.Wire.d_ts /. 1000.0);
    Obs.Metrics.incr t.m_delivered;
    Obs.Metrics.observe t.m_latency pk.pk_latency_ms;
    (match Hashtbl.find_opt t.flows pk.pk_flow with
     | Some st ->
       if pk.pk_seq < st.fl_last_seq then begin
         t.reordered <- t.reordered + 1;
         Obs.Metrics.incr t.m_reordered
       end
       else st.fl_last_seq <- pk.pk_seq
     | None -> ())
  | Some _ | None -> ()

(* ---- injection ------------------------------------------------------- *)

let inject t flow_id (st : flow_state) =
  let sim = t.world.World.sim in
  let now = Sim.now sim in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let pk =
    {
      pk_flow = flow_id;
      pk_seq = seq;
      pk_dst = st.fl_dst;
      pk_version_at_inject = st.fl_version;
      pk_injected_at = now;
      pk_hops = [ st.fl_src ];
      pk_delivered_at = -1;
      pk_latency_ms = 0.0;
    }
  in
  Hashtbl.replace t.flight seq pk;
  Obs.Metrics.incr t.m_injected;
  let d =
    {
      P4update.Wire.d_flow_id = flow_id;
      seq;
      ttl = t.wl.tw_ttl;
      origin = st.fl_src land 0xFF;
      dst = st.fl_dst;
      tag = 0;
      d_ts = int_of_float ((now *. 1000.0) +. 0.5); (* sim µs on the wire *)
    }
  in
  Netsim.host_inject t.world.World.net ~node:st.fl_src (P4update.Wire.data_to_bytes d)

let gap t =
  let sim = t.world.World.sim in
  if t.wl.tw_poisson then Sim.exponential sim ~mean:t.wl.tw_mean_gap_ms
  else t.wl.tw_mean_gap_ms

(* A flow retired from the world (soak churn) stops probing: its stale
   rules would still deliver, but auditing a forgotten flow forever
   would grow the probe population without bound. *)
let rec arm_injector t flow_id (st : flow_state) =
  let sim = t.world.World.sim in
  Sim.schedule sim ~delay:(gap t) (fun () ->
      if Sim.now sim < t.stop_ms && World.find_flow t.world ~flow_id <> None then begin
        inject t flow_id st;
        arm_injector t flow_id st
      end
      else st.fl_injecting <- false)

let start_flow t flow_id =
  match (Hashtbl.find_opt t.flows flow_id, World.find_flow t.world ~flow_id) with
  | Some st, _ when st.fl_injecting -> ()
  | _, None -> ()
  | existing, Some f ->
    let st = match existing with Some st -> st | None -> flow_state_of f in
    Hashtbl.replace t.flows flow_id st;
    st.fl_injecting <- true;
    arm_injector t flow_id st

(* ---- engine lifecycle ------------------------------------------------ *)

let note_pushed t ~flow_id ~version =
  match (Hashtbl.find_opt t.flows flow_id, World.find_flow t.world ~flow_id) with
  | Some st, Some f ->
    ignore version;
    (* The controller's flow record already shows the pushed state. *)
    record_version st ~version:f.P4update.Controller.version
      ~path:f.P4update.Controller.path
      ~dl:(f.P4update.Controller.last_type = P4update.Wire.Dl)
  | _ -> ()

let attach ?(workload = default_workload) (w : World.t) =
  if Topo.Graph.node_count (Netsim.graph w.World.net) > 1 lsl 20 then
    invalid_arg "Traffic.attach: more than 2^20 nodes";
  let metrics = Netsim.metrics w.World.net in
  let t =
    {
      world = w;
      wl = workload;
      stop_ms = workload.tw_stop_ms;
      flows = Hashtbl.create 256;
      flight = Hashtbl.create 4096;
      next_seq = 0;
      reordered = 0;
      drained_upto = 0;
      acc_counts = Array.make 5 0;
      acc_excused = 0;
      acc_latencies = [];
      acc_digest = 0x1505;
      m_injected = Obs.Metrics.counter metrics "traffic.injected";
      m_delivered = Obs.Metrics.counter metrics "traffic.delivered";
      m_reordered = Obs.Metrics.counter metrics "traffic.reordered";
      m_latency = Obs.Metrics.histogram metrics "traffic.latency_ms";
    }
  in
  Netsim.on_delivery w.World.net (fun time node port bytes ->
      on_hop t time node port bytes);
  Array.iter
    (fun sw ->
      P4update.Switch.on_deliver sw (fun ~time d ->
          on_egress t (P4update.Switch.node sw) ~time d))
    w.World.switches;
  List.iter
    (fun (f : P4update.Controller.flow) ->
      Hashtbl.replace t.flows f.P4update.Controller.flow_id (flow_state_of f))
    (World.flows w);
  (* Subscribe to every controller push — explicit caller pushes AND the
     recovery loop's internal reroutes/resyncs — so the version history
     never misses a path the plane is switching to.  record_version is
     idempotent per version, so callers that also report pushes cost
     nothing extra. *)
  Control.Plane.on_push w.World.plane (fun ~flow_id ~version ->
      note_pushed t ~flow_id ~version);
  t

let start t = Hashtbl.iter (fun flow_id _ -> start_flow t flow_id) t.flows

(* Extend (or resume) injection until [stop_ms]: used by the soak monitor
   to run probe bursts cycle after cycle on one engine.  Idle injectors
   are re-armed; running ones just see the later deadline. *)
let inject_until t ~stop_ms =
  t.stop_ms <- stop_ms;
  start t

let note_admitted t ~flow_id = start_flow t flow_id

(* ---- classification -------------------------------------------------- *)

(* Does a consistent version assignment exist for the edge sequence,
   using only versions <= cap?  Each edge may take any version whose
   path contains it; across consecutive edges the version may rise
   (downstream-first switchover) always, and may drop only out of a
   dual-layer version (the packet exits a committed DL segment at its
   gateway onto a lower version).  Forward reachability over the (tiny)
   per-flow version history: exact. *)
let feasible_trajectory history ~cap edges =
  let allowed e =
    List.filter (fun r -> r.vr_version <= cap && mem_edge e r.vr_edges) history
  in
  let step reach e =
    List.filter
      (fun r ->
        List.exists (fun p -> r.vr_version >= p.vr_version || p.vr_dl) reach)
      (allowed e)
  in
  match edges with
  | [] -> true
  | e :: rest ->
    let rec go reach = function
      | [] -> reach <> []
      | e :: more -> ( match step reach e with [] -> false | r -> go r more)
    in
    go (allowed e) rest

let classify (st : flow_state) (pk : pkt) =
  let hops = List.rev pk.pk_hops in
  let edges = edges_of_path hops in
  let distinct_edges = List.sort_uniq Int.compare edges in
  if List.length distinct_edges < List.length edges then Loop
  else if pk.pk_delivered_at < 0 then Blackhole
  else if pk.pk_delivered_at <> pk.pk_dst then Mixed (* misdelivered *)
  else if feasible_trajectory st.fl_history ~cap:pk.pk_version_at_inject edges
  then Old_path
  else if feasible_trajectory st.fl_history ~cap:max_int edges then New_path
  else Mixed

let hash_combine h x = ((h * 1000003) lxor x) land 0x3FFFFFFF

(* Classify and retire every packet injected so far.  Call at quiet
   instants only (the plane drained: every such packet is terminal), so
   the soak monitor can account for millions of probes cycle by cycle
   while the flight table returns to empty between bursts — the leak
   check depends on that.  Seq order keeps the running digest independent
   of drain batching: one drain at the end and N incremental drains
   produce identical summaries.  [?excuse flow ~injected_at] may waive a
   blackhole (e.g. injected into a window where the flow's path had a
   failed element); waived packets count as [ts_excused], not as
   violations. *)
let drain ?excuse t =
  for seq = t.drained_upto to t.next_seq - 1 do
    match Hashtbl.find_opt t.flight seq with
    | None -> ()
    | Some pk ->
      Hashtbl.remove t.flight seq;
      let cls =
        match Hashtbl.find_opt t.flows pk.pk_flow with
        | Some st -> classify st pk
        | None -> Blackhole
      in
      let excused =
        cls = Blackhole
        && (match excuse with
           | Some f -> f pk.pk_flow ~injected_at:pk.pk_injected_at
           | None -> false)
      in
      if excused then t.acc_excused <- t.acc_excused + 1
      else begin
        t.acc_counts.(outcome_to_int cls) <- t.acc_counts.(outcome_to_int cls) + 1;
        match cls with
        | Mixed | Loop | Blackhole ->
          (* A per-packet consistency violation: stamp it and dump the
             flight-recorder window while the evidence is still in it. *)
          let now = Sim.now (Netsim.sim t.world.World.net) in
          Obs.Flight_recorder.note ~now ~kind:Obs.Flight_recorder.k_violation
            ~node:pk.pk_delivered_at ~flow:pk.pk_flow ~a:(outcome_to_int cls)
            ~b:pk.pk_seq;
          ignore
            (Obs.Flight_recorder.trigger ~now
               ~reason:("traffic-" ^ outcome_name cls))
        | Old_path | New_path -> ()
      end;
      if pk.pk_delivered_at >= 0 then
        t.acc_latencies <- pk.pk_latency_ms :: t.acc_latencies;
      t.acc_digest <-
        hash_combine t.acc_digest
          (Hashtbl.hash
             ( pk.pk_flow, pk.pk_seq, outcome_to_int cls, pk.pk_hops,
               int_of_float ((pk.pk_latency_ms *. 1000.0) +. 0.5) ))
  done;
  t.drained_upto <- t.next_seq

let in_flight t = Hashtbl.length t.flight

let finalize ?(wall_s = 0.0) t =
  drain t;
  let injected = t.next_seq in
  let counts = t.acc_counts in
  let delivered = counts.(0) + counts.(1) + counts.(2) in
  let samples = t.acc_latencies in
  {
    ts_injected = injected;
    ts_delivered = delivered;
    ts_dropped = injected - delivered;
    ts_reordered = t.reordered;
    ts_old_path = counts.(outcome_to_int Old_path);
    ts_new_path = counts.(outcome_to_int New_path);
    ts_mixed = counts.(outcome_to_int Mixed);
    ts_loops = counts.(outcome_to_int Loop);
    ts_blackholes = counts.(outcome_to_int Blackhole);
    ts_excused = t.acc_excused;
    ts_p50_ms = Option.value ~default:0.0 (Stats.percentile_opt 50.0 samples);
    ts_p99_ms = Option.value ~default:0.0 (Stats.percentile_opt 99.0 samples);
    ts_sim_ms = Sim.now t.world.World.sim;
    ts_wall_s = wall_s;
    ts_pkts_per_s = (if wall_s > 0.0 then float_of_int injected /. wall_s else 0.0);
    ts_digest = t.acc_digest;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>traffic: %d injected, %d delivered (%d dropped, %d reordered) in %.1f ms \
     simulated@,\
     outcomes: %d old-path  %d new-path  %d mixed  %d loops  %d blackholes  \
     %d excused  (%d violations)@,\
     latency p50 %.3f ms  p99 %.3f ms   %.0f pkts/s   digest %08x@]"
    s.ts_injected s.ts_delivered s.ts_dropped s.ts_reordered s.ts_sim_ms s.ts_old_path
    s.ts_new_path s.ts_mixed s.ts_loops s.ts_blackholes s.ts_excused (violations s)
    s.ts_p50_ms s.ts_p99_ms s.ts_pkts_per_s s.ts_digest
