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

(* One entry of a flow's version history. *)
type vrec = {
  vr_version : int;
  vr_edges : int list;         (* directed edges of that version's path, see [edge] *)
  vr_dl : bool;                (* the update installing it was dual-layer *)
}

(* Per-flow audit state. *)
type flow_state = {
  fl_index : int;             (* its slot in [t.states], fixed at creation *)
  fl_src : int;
  fl_dst : int;
  mutable fl_history : vrec list; (* latest recorded first, one entry per version *)
  mutable fl_top : int;       (* greatest version in [fl_history] *)
  mutable fl_version : int;   (* current controller version *)
  mutable fl_last_seq : int;  (* highest seq delivered so far (reordering) *)
  mutable fl_injecting : bool;
}

(* The flight window, the hop arena and the latency buffer all store
   their slots in chunks of [chunk_len]: slot [i] sits at offset
   [i land chunk_mask] of chunk [i lsr chunk_bits] of a spine.  Every
   chunk array is a pool-sized block, made the first time one of its
   slots is used and kept for reuse after a drain, and growth copies
   only the spine.  One flat array (a large block, reallocated on
   growth) made the peak heap of identical perfbench episodes differ by
   one 32 KB pool in about one run in twenty. *)
let chunk_bits = 7
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

(* [spine] with a chunk for slot [i], the first slot of its chunk: a
   full spine doubles, its new half holding [empty], and a missing
   chunk is made by [make]. *)
let with_chunk spine ~empty ~make i =
  let c = i lsr chunk_bits in
  let spine =
    if c < Array.length spine then spine
    else Array.append spine (Array.make (Array.length spine) empty)
  in
  if spine.(c) == empty then spine.(c) <- make ();
  spine

let new_int_chunk () = Array.make chunk_len 0
let new_float_chunk () = Array.make chunk_len 0.0

(* One chunk of the flight window, a column per probe field.  A probe's
   seq is its window position. *)
type chunk = {
  c_flow : int array;          (* flow id *)
  c_state : int array;         (* its flow's [fl_index], fixed at injection *)
  c_cap : int array;           (* controller version of the flow at injection *)
  c_injected_at : float array; (* simulated injection instant *)
  c_delivered_at : int array;  (* node, -1 while undelivered *)
  c_latency_ms : float array;  (* wire-carried ingress timestamp delta *)
  c_newest_hop : int array;    (* hop-arena index of its newest hop *)
}

(* The filler of spine entries with no chunk yet. *)
let no_chunk =
  { c_flow = [||]; c_state = [||]; c_cap = [||]; c_injected_at = [||];
    c_delivered_at = [||]; c_latency_ms = [||]; c_newest_hop = [||] }

let new_chunk () =
  { c_flow = new_int_chunk (); c_state = new_int_chunk (); c_cap = new_int_chunk ();
    c_injected_at = new_float_chunk (); c_delivered_at = new_int_chunk ();
    c_latency_ms = new_float_chunk (); c_newest_hop = new_int_chunk () }

type t = {
  world : World.t;
  wl : workload;
  mutable stop_ms : float;       (* injectors stop at this simulated time *)
  (* A stdlib table on purpose: [start] iterates it, and that order
     decides the injectors' schedule and RNG draws, hence every pinned
     digest. *)
  flows : (int, flow_state) Hashtbl.t;
  (* Every state ever made, by [fl_index]: a probe names its flow's
     state by index, so egress and drain never look a flow up. *)
  mutable states : flow_state array;
  mutable state_count : int;
  (* The flight window: probe [seq] sits in slot [seq - drained_upto]
     until drained.  Seqs are dense from 0 and [drain] retires the whole
     prefix below [next_seq], so [drained_upto, next_seq) is exactly the
     set of probes in flight and a drain frees every slot for reuse. *)
  mutable window : chunk array;
  mutable next_seq : int;
  (* The hop arena: one int per hop of a probe in flight,
     [(prev + 1) lsl node_bits lor node], where [prev] is the arena
     index of the probe's previous hop (-1 for its first).  A drain
     retires every probe in flight, so it empties the arena. *)
  mutable hops : int array array;
  mutable hop_count : int;
  mutable reordered : int;
  (* incremental drain accumulators (seq order, so the digest is
     independent of drain batching) *)
  mutable drained_upto : int;    (* every seq below this is accounted for *)
  acc_counts : int array;        (* per-outcome totals *)
  mutable acc_excused : int;
  mutable latencies : float array array; (* delivered probes' latencies, drain order *)
  mutable latency_count : int;
  mutable acc_digest : int;
}

(* A directed edge a -> b as one int, so the audit compares edges with
   integer equality instead of polymorphic compare on tuples.  Node ids
   stay below 2^20 in every topology this repository builds; a hop-arena
   entry packs a node the same way. *)
let node_bits = 20
let node_mask = (1 lsl node_bits) - 1

let[@inline] edge a b = (a lsl node_bits) lor b

let rec edges_of_path = function
  | a :: (b :: _ as rest) -> edge a b :: edges_of_path rest
  | _ -> []

let rec mem_edge e = function [] -> false | x :: rest -> Int.equal x e || mem_edge e rest

(* Append [node] to the hop arena after entry [prev] (-1 for a probe's
   first hop); its index. *)
let push_hop t ~prev node =
  let k = t.hop_count in
  if k land chunk_mask = 0 then
    t.hops <- with_chunk t.hops ~empty:[||] ~make:new_int_chunk k;
  t.hops.(k lsr chunk_bits).(k land chunk_mask) <- ((prev + 1) lsl node_bits) lor node;
  t.hop_count <- k + 1;
  k

(* The visited nodes from arena entry [k] back to the first, newest
   first: a short-lived list for [classify] and the digest. *)
let rec hops_from t k =
  if k < 0 then []
  else
    let e = t.hops.(k lsr chunk_bits).(k land chunk_mask) in
    (e land node_mask) :: hops_from t ((e lsr node_bits) - 1)

let push_latency t ms =
  let k = t.latency_count in
  if k land chunk_mask = 0 then
    t.latencies <- with_chunk t.latencies ~empty:[||] ~make:new_float_chunk k;
  t.latencies.(k lsr chunk_bits).(k land chunk_mask) <- ms;
  t.latency_count <- k + 1

(* Every latency drained so far, newest first. *)
let latency_list t =
  let rec from k acc =
    if k = t.latency_count then acc
    else from (k + 1) (t.latencies.(k lsr chunk_bits).(k land chunk_mask) :: acc)
  in
  from 0 []

(* Idempotent per version.  A push normally reports a version above
   every recorded one (the controller prepares [version + 1] and [push]
   stores it), which is recorded without a scan; only a stale prepared
   update repeats or lowers a version, and only that case searches the
   history.  The classifier does not depend on the order. *)
let record_version st ~version ~path ~dl =
  st.fl_version <- version;
  if version > st.fl_top || not (List.exists (fun r -> r.vr_version = version) st.fl_history)
  then begin
    st.fl_top <- max st.fl_top version;
    st.fl_history <-
      { vr_version = version; vr_edges = edges_of_path path; vr_dl = dl } :: st.fl_history
  end

(* A new state for flow [f], registered under the next dense index. *)
let flow_state_of t (f : P4update.Controller.flow) =
  let st =
    {
      fl_index = t.state_count;
      fl_src = f.P4update.Controller.src;
      fl_dst = f.P4update.Controller.dst;
      fl_history = [];
      fl_top = min_int;
      fl_version = f.P4update.Controller.version;
      fl_last_seq = -1;
      fl_injecting = false;
    }
  in
  if t.state_count = Array.length t.states then
    t.states <- Array.append t.states (Array.make (max 1 t.state_count) st);
  t.states.(t.state_count) <- st;
  t.state_count <- t.state_count + 1;
  record_version st ~version:f.P4update.Controller.version
    ~path:f.P4update.Controller.path
    ~dl:(f.P4update.Controller.last_type = P4update.Wire.Dl);
  st

(* ---- delivery hooks -------------------------------------------------- *)

(* A link-hop of one of our probes: append the receiving node to its
   hops.  Reads the two header fields in place; a control frame or
   short frame has seq -1 and finds nothing. *)
let on_hop t _time node _port bytes =
  let seq = P4update.Wire.data_seq_of_bytes bytes in
  if seq >= t.drained_upto && seq < t.next_seq then begin
    let i = seq - t.drained_upto in
    let c = t.window.(i lsr chunk_bits) and j = i land chunk_mask in
    if c.c_flow.(j) = P4update.Wire.data_flow_id_of_bytes bytes then
      c.c_newest_hop.(j) <- push_hop t ~prev:c.c_newest_hop.(j) node
  end

(* Egress: the packet left the network at [node].  Read in place like
   [on_hop]. *)
let on_egress t node ~time bytes =
  let seq = P4update.Wire.data_seq_of_bytes bytes in
  if seq >= t.drained_upto && seq < t.next_seq then begin
    let i = seq - t.drained_upto in
    let c = t.window.(i lsr chunk_bits) and j = i land chunk_mask in
    if c.c_flow.(j) = P4update.Wire.data_flow_id_of_bytes bytes && c.c_delivered_at.(j) < 0
    then begin
      c.c_delivered_at.(j) <- node;
      (* Latency from the wire-carried ingress timestamp (µs). *)
      c.c_latency_ms.(j) <-
        time -. (float_of_int (P4update.Wire.data_ts_of_bytes bytes) /. 1000.0);
      let st = t.states.(c.c_state.(j)) in
      if seq < st.fl_last_seq then t.reordered <- t.reordered + 1
      else st.fl_last_seq <- seq
    end
  end

(* ---- injection ------------------------------------------------------- *)

let inject t flow_id (st : flow_state) =
  let sim = t.world.World.sim in
  let now = Sim.now sim in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = seq - t.drained_upto in
  if i land chunk_mask = 0 then t.window <- with_chunk t.window ~empty:no_chunk ~make:new_chunk i;
  let c = t.window.(i lsr chunk_bits) and j = i land chunk_mask in
  c.c_flow.(j) <- flow_id;
  c.c_state.(j) <- st.fl_index;
  c.c_cap.(j) <- st.fl_version;
  c.c_injected_at.(j) <- now;
  c.c_delivered_at.(j) <- -1;
  c.c_latency_ms.(j) <- 0.0;
  c.c_newest_hop.(j) <- push_hop t ~prev:(-1) st.fl_src;
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

(* One closure per armed flow, re-scheduled after each probe.  A flow
   retired from the world (soak churn) stops probing: its stale rules
   would still deliver, but auditing a forgotten flow forever would
   grow the probe population without bound. *)
let arm_injector t flow_id (st : flow_state) =
  let sim = t.world.World.sim in
  let rec fire () =
    if Sim.now sim < t.stop_ms && World.find_flow t.world ~flow_id <> None then begin
      inject t flow_id st;
      Sim.schedule sim ~delay:(gap t) fire
    end
    else st.fl_injecting <- false
  in
  Sim.schedule sim ~delay:(gap t) fire

let start_flow t flow_id =
  match (Hashtbl.find_opt t.flows flow_id, World.find_flow t.world ~flow_id) with
  | Some st, _ when st.fl_injecting -> ()
  | _, None -> ()
  | existing, Some f ->
    let st = match existing with Some st -> st | None -> flow_state_of t f in
    Hashtbl.replace t.flows flow_id st;
    st.fl_injecting <- true;
    arm_injector t flow_id st

(* ---- engine lifecycle ------------------------------------------------ *)

(* Record a pushed update: the controller's flow record already shows
   the pushed state. *)
let note_pushed t ~flow_id =
  match (Hashtbl.find_opt t.flows flow_id, World.find_flow t.world ~flow_id) with
  | Some st, Some f ->
    record_version st ~version:f.P4update.Controller.version
      ~path:f.P4update.Controller.path
      ~dl:(f.P4update.Controller.last_type = P4update.Wire.Dl)
  | _ -> ()

let attach ?(workload = default_workload) (w : World.t) =
  if Topo.Graph.node_count (Netsim.graph w.World.net) > 1 lsl node_bits then
    invalid_arg "Traffic.attach: more than 2^20 nodes";
  (* A zero gap re-arms every injector at the same instant: simulated
     time would never reach [tw_stop_ms]. *)
  if not (Float.is_finite workload.tw_mean_gap_ms && workload.tw_mean_gap_ms > 0.0) then
    invalid_arg "Traffic.attach: tw_mean_gap_ms must be positive";
  let t =
    {
      world = w;
      wl = workload;
      stop_ms = workload.tw_stop_ms;
      flows = Hashtbl.create 256;
      states = [||];
      state_count = 0;
      window = Array.make (4096 / chunk_len) no_chunk;
      next_seq = 0;
      hops = Array.make (4096 / chunk_len) [||];
      hop_count = 0;
      reordered = 0;
      drained_upto = 0;
      acc_counts = Array.make 5 0;
      acc_excused = 0;
      latencies = Array.make (4096 / chunk_len) [||];
      latency_count = 0;
      acc_digest = 0x1505;
    }
  in
  Netsim.on_delivery w.World.net (fun time node port bytes ->
      on_hop t time node port bytes);
  Array.iter
    (fun sw ->
      P4update.Switch.on_deliver sw (fun ~time bytes ->
          on_egress t (P4update.Switch.node sw) ~time bytes))
    w.World.switches;
  List.iter
    (fun (f : P4update.Controller.flow) ->
      Hashtbl.replace t.flows f.P4update.Controller.flow_id (flow_state_of t f))
    (World.flows w);
  (* Subscribe to every controller push — explicit caller pushes AND the
     recovery loop's internal reroutes/resyncs — so the version history
     never misses a path the plane is switching to.  record_version is
     idempotent per version, so a re-pushed update adds nothing. *)
  P4update.Controller.on_push w.World.controller (fun ~flow_id ~version:_ ->
      note_pushed t ~flow_id);
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

(* Does the directed edge a -> b occur in the newest-first hop list? *)
let rec has_edge a b = function
  | x :: (y :: _ as rest) -> (y = a && x = b) || has_edge a b rest
  | _ -> false

(* Does any directed edge repeat?  Each hop's edge is looked for among
   the older ones. *)
let rec repeats_edge = function
  | x :: (y :: _ as rest) -> has_edge y x rest || repeats_edge rest
  | _ -> false

(* The greatest version <= [cap] whose path holds [e] and from which a
   packet may move on to a version in a set whose greatest element is
   [hi]: a rise always, a drop only out of a dual-layer version.
   [min_int] when there is none. *)
let rec greatest_entry ~cap ~hi e best = function
  | [] -> best
  | r :: more ->
    let v = r.vr_version in
    if v > best && v <= cap && (v <= hi || r.vr_dl) && mem_edge e r.vr_edges then
      greatest_entry ~cap ~hi e v more
    else greatest_entry ~cap ~hi e best more

(* Does a consistent version assignment exist along the trajectory,
   using only versions <= cap?  Each edge may take any version whose
   path contains it; across consecutive edges the version may rise
   (downstream-first switchover) always, and may drop only out of a
   dual-layer version (the packet exits a committed DL segment at its
   gateway onto a lower version).  Exact backward reachability over the
   newest-first hops: a version fits an edge iff it is allowed there and
   may move on to some version that completes the newer part of the
   trajectory, which depends on that set only through its greatest
   element [hi].  So the fold keeps one int and allocates nothing. *)
let rec feasible history ~cap hi = function
  | x :: (y :: _ as rest) ->
    let hi = greatest_entry ~cap ~hi (edge y x) min_int history in
    hi <> min_int && feasible history ~cap hi rest
  | _ -> true

let classify ~history ~cap ~dst ~delivered_at hops =
  if repeats_edge hops then Loop
  else if delivered_at < 0 then Blackhole
  else if delivered_at <> dst then Mixed (* misdelivered *)
  else if feasible history ~cap max_int hops then Old_path
  else if feasible history ~cap:max_int max_int hops then New_path
  else Mixed

let hash_combine h x = ((h * 1000003) lxor x) land 0x3FFFFFFF

(* Classify and retire every packet injected so far.  Call at quiet
   instants only (the plane drained: every such packet is terminal), so
   the soak monitor can account for millions of probes cycle by cycle
   while the flight window and the hop arena return to empty between
   bursts, their chunks kept for the next one — the leak check depends
   on that.  Seq order keeps the running digest independent of drain
   batching: one drain at the end and N incremental drains produce
   identical summaries.  [?excuse flow ~injected_at] may waive a
   blackhole (e.g. injected into a window where the flow's path had a
   failed element); waived packets count as [ts_excused], not as
   violations. *)
let drain ?excuse t =
  let base = t.drained_upto in
  for seq = base to t.next_seq - 1 do
    let i = seq - base in
    let c = t.window.(i lsr chunk_bits) and j = i land chunk_mask in
    let flow = c.c_flow.(j) and st = t.states.(c.c_state.(j)) in
    let delivered_at = c.c_delivered_at.(j) and latency_ms = c.c_latency_ms.(j) in
    let hops = hops_from t c.c_newest_hop.(j) in
    let cls =
      classify ~history:st.fl_history ~cap:c.c_cap.(j) ~dst:st.fl_dst ~delivered_at hops
    in
    let excused =
      cls = Blackhole
      && (match excuse with
         | Some f -> f flow ~injected_at:c.c_injected_at.(j)
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
          ~node:delivered_at ~flow ~a:(outcome_to_int cls) ~b:seq;
        ignore
          (Obs.Flight_recorder.trigger ~now
             ~reason:("traffic-" ^ outcome_name cls))
      | Old_path | New_path -> ()
    end;
    if delivered_at >= 0 then push_latency t latency_ms;
    t.acc_digest <-
      hash_combine t.acc_digest
        (Hashtbl.hash
           ( flow, seq, outcome_to_int cls, hops,
             int_of_float ((latency_ms *. 1000.0) +. 0.5) ))
  done;
  t.drained_upto <- t.next_seq;
  t.hop_count <- 0

let in_flight t = t.next_seq - t.drained_upto
let injected t = t.next_seq

let history t ~flow_id =
  match Hashtbl.find_opt t.flows flow_id with Some st -> st.fl_history | None -> []

let finalize ?(wall_s = 0.0) t =
  drain t;
  let injected = t.next_seq in
  let counts = t.acc_counts in
  let delivered = counts.(0) + counts.(1) + counts.(2) in
  let samples = latency_list t in
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
