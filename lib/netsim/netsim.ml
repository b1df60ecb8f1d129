module Sim = Dessim.Sim
module Graph = Topo.Graph
module Topologies = Topo.Topologies

type control_latency =
  | Geo
  | Normal_dist of { mean : float; stddev : float }
  | Fixed of float

type config = {
  switch_processing_ms : float;
  rule_update_mean_ms : float option;
  resubmit_delay_ms : float;
  control_latency : control_latency;
  controller_service_ms : float;
  controller_background_ms : float;
}

let default_config =
  {
    switch_processing_ms = 0.5;
    rule_update_mean_ms = None;
    resubmit_delay_ms = 0.25;
    control_latency = Geo;
    controller_service_ms = 0.25;
    controller_background_ms = 0.0;
  }

type fault = Deliver | Drop | Delay of float | Corrupt | Duplicate

type ctl_direction = To_switch of int | To_controller of int

type topo_event =
  | Link_down of int * int
  | Link_up of int * int
  | Node_down of int
  | Node_up of int

(* Read-only snapshot of the network counters.  The live values now live in
   an [Obs.Metrics] registry (one per network); [counters] rebuilds this
   record on each call so existing field-access call sites keep working. *)
type counters = {
  data_packets : int;
  data_injected : int;
  control_to_switch : int;
  control_to_controller : int;
  resubmissions : int;
  dropped_by_fault : int;
  delayed_by_fault : int;
  corrupted_by_fault : int;
  duplicated_by_fault : int;
  dropped_by_failure : int;
}

(* Pre-resolved counter handles so the hot paths do one field mutation per
   event instead of a name lookup. *)
type stats_handles = {
  h_data_packets : Obs.Metrics.counter;
  h_data_injected : Obs.Metrics.counter;
  h_control_to_switch : Obs.Metrics.counter;
  h_control_to_controller : Obs.Metrics.counter;
  h_resubmissions : Obs.Metrics.counter;
  h_dropped_by_fault : Obs.Metrics.counter;
  h_delayed_by_fault : Obs.Metrics.counter;
  h_corrupted_by_fault : Obs.Metrics.counter;
  h_duplicated_by_fault : Obs.Metrics.counter;
  h_dropped_by_failure : Obs.Metrics.counter;
}

type t = {
  sim : Sim.t;
  topo : Topologies.t;
  cfg : config;
  ports : int array array; (* node -> port -> neighbor *)
  (* Per (node, port), resolved at [create]: link latency plus switch
     processing, the neighbor's port back toward node, and whether the
     link is down (both ends flip together). *)
  hop_delay : float array array;
  rx_port : int array array;
  link_down : bool array array;
  mutable handlers : (port:int -> Bytes.t -> unit) array;
  mutable controller_handler : (from:int -> Bytes.t -> unit) option;
  mutable data_fault : (from:int -> to_:int -> Bytes.t -> fault) option;
  mutable control_fault : (dir:ctl_direction -> Bytes.t -> fault) option;
  mutable observers : (float -> int -> int -> Bytes.t -> unit) list;
  mutable topo_observers : (topo_event -> unit) list;
  node_down : bool array;
  ctl_latency : float array; (* per-node control-plane latency (Geo/Fixed) *)
  mutable controller_busy_until : float;
  metrics : Obs.Metrics.t;
  stats : stats_handles;
}

let compute_ctl_latencies topo cfg =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  match cfg.control_latency with
  | Fixed ms -> Array.make n ms
  | Normal_dist _ -> Array.make n 0.0 (* sampled per message instead *)
  | Geo ->
    (* the shortest-path latency from the controller, bit for bit *)
    let controller = topo.Topologies.controller in
    Array.mapi
      (fun node ms ->
        if node = controller then 0.05
        else if ms = infinity then invalid_arg "Netsim: controller cannot reach every node"
        else ms)
      (Graph.distances_avoiding g ~src:controller ~node_ok:(fun _ -> true)
         ~edge_ok:(fun _ _ -> true))

let make_stats_handles metrics =
  let c = Obs.Metrics.counter metrics in
  {
    h_data_packets = c "net.data.rx";
    h_data_injected = c "net.data.injected";
    h_control_to_switch = c "net.ctl.to_switch";
    h_control_to_controller = c "net.ctl.to_controller";
    h_resubmissions = c "net.data.resubmit";
    h_dropped_by_fault = c "net.fault.dropped";
    h_delayed_by_fault = c "net.fault.delayed";
    h_corrupted_by_fault = c "net.fault.corrupted";
    h_duplicated_by_fault = c "net.fault.duplicated";
    h_dropped_by_failure = c "net.failure.dropped";
  }

let make config sim topo =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  let ports = Array.init n (fun node -> Array.of_list (Graph.neighbors g node)) in
  let port_toward node neighbor =
    let arr = ports.(neighbor) in
    let rec find i = if arr.(i) = node then i else find (i + 1) in
    find 0
  in
  let metrics = Obs.Metrics.create () in
  {
    sim;
    topo;
    cfg = config;
    ports;
    hop_delay =
      Array.mapi
        (fun node arr ->
          Array.map
            (fun neighbor -> Graph.latency g node neighbor +. config.switch_processing_ms)
            arr)
        ports;
    rx_port = Array.mapi (fun node arr -> Array.map (port_toward node) arr) ports;
    link_down = Array.map (fun arr -> Array.make (Array.length arr) false) ports;
    handlers = Array.make n (fun ~port:_ _ -> ());
    controller_handler = None;
    data_fault = None;
    control_fault = None;
    observers = [];
    topo_observers = [];
    node_down = Array.make n false;
    ctl_latency = compute_ctl_latencies topo config;
    controller_busy_until = 0.0;
    metrics;
    stats = make_stats_handles metrics;
  }

let sim t = t.sim
let topology t = t.topo
let graph t = t.topo.Topologies.graph
let config t = t.cfg
let metrics t = t.metrics

let counters t =
  let s = t.stats in
  let c = Obs.Metrics.count in
  {
    data_packets = c s.h_data_packets;
    data_injected = c s.h_data_injected;
    control_to_switch = c s.h_control_to_switch;
    control_to_controller = c s.h_control_to_controller;
    resubmissions = c s.h_resubmissions;
    dropped_by_fault = c s.h_dropped_by_fault;
    delayed_by_fault = c s.h_delayed_by_fault;
    corrupted_by_fault = c s.h_corrupted_by_fault;
    duplicated_by_fault = c s.h_duplicated_by_fault;
    dropped_by_failure = c s.h_dropped_by_failure;
  }

let port_count t ~node = Array.length t.ports.(node)

let neighbor_of_port t ~node ~port =
  if port < 0 || port >= Array.length t.ports.(node) then None
  else Some t.ports.(node).(port)

(* Port of [v] at [u], or -1 when they are not adjacent. *)
let port_at t u v =
  if u < 0 || u >= Array.length t.ports then -1
  else begin
    let arr = t.ports.(u) in
    let rec find i =
      if i >= Array.length arr then -1 else if arr.(i) = v then i else find (i + 1)
    in
    find 0
  end

let port_of_neighbor t ~node ~neighbor =
  let p = port_at t node neighbor in
  if p < 0 then
    invalid_arg
      (Printf.sprintf "Netsim.port_of_neighbor: %d is not adjacent to %d" neighbor node);
  p

let attach t ~node handler = t.handlers.(node) <- handler
let set_controller t handler = t.controller_handler <- Some handler
let set_data_fault t hook = t.data_fault <- Some hook
let clear_data_fault t = t.data_fault <- None
let set_control_fault t hook = t.control_fault <- Some hook
let clear_control_fault t = t.control_fault <- None
let on_delivery t f = t.observers <- t.observers @ [ f ]
let on_topology_event t f = t.topo_observers <- t.topo_observers @ [ f ]

(* ------------------------------------------------------------------ *)
(* Topology failures                                                    *)
(* ------------------------------------------------------------------ *)

let node_is_up t ~node = not t.node_down.(node)

(* Pairs that share no link are "up": nothing of theirs can fail. *)
let link_is_up t u v =
  let p = port_at t u v in
  p < 0 || not t.link_down.(u).(p)

let set_link_down t u v down =
  let p = port_at t u v in
  t.link_down.(u).(p) <- down;
  t.link_down.(v).(t.rx_port.(u).(p)) <- down

let fire_topo_event t ev =
  (let node, a, b =
     match ev with
     | Link_down (u, v) -> (u, v, 0)
     | Link_up (u, v) -> (u, v, 1)
     | Node_down n -> (n, -1, 0)
     | Node_up n -> (n, -1, 1)
   in
   Obs.Flight_recorder.note ~now:(Sim.now t.sim) ~kind:Obs.Flight_recorder.k_topo
     ~node ~flow:(-1) ~a ~b);
  (match Sim.trace t.sim with
   | None -> ()
   | Some sink ->
     let name, attrs =
       match ev with
       | Link_down (u, v) -> ("link.down", [ Obs.Trace.int "u" u; Obs.Trace.int "v" v ])
       | Link_up (u, v) -> ("link.up", [ Obs.Trace.int "u" u; Obs.Trace.int "v" v ])
       | Node_down n -> ("node.down", [ Obs.Trace.int "node" n ])
       | Node_up n -> ("node.up", [ Obs.Trace.int "node" n ])
     in
     Obs.Trace.instant sink ~cat:"topo" ~attrs name);
  List.iter (fun f -> f ev) t.topo_observers

let check_link t u v fn =
  if not (Graph.has_edge (graph t) u v) then
    invalid_arg (Printf.sprintf "Netsim.%s: no link %d-%d" fn u v)

let fail_link t ~u ~v ~at =
  check_link t u v "fail_link";
  Sim.schedule_at t.sim ~time:at (fun () ->
      if link_is_up t u v then begin
        set_link_down t u v true;
        fire_topo_event t (Link_down (u, v))
      end)

let restore_link t ~u ~v ~at =
  check_link t u v "restore_link";
  Sim.schedule_at t.sim ~time:at (fun () ->
      if not (link_is_up t u v) then begin
        set_link_down t u v false;
        fire_topo_event t (Link_up (u, v))
      end)

let fail_node t ~node ~at =
  Sim.schedule_at t.sim ~time:at (fun () ->
      if node_is_up t ~node then begin
        t.node_down.(node) <- true;
        fire_topo_event t (Node_down node)
      end)

let restore_node t ~node ~at =
  Sim.schedule_at t.sim ~time:at (fun () ->
      if not (node_is_up t ~node) then begin
        t.node_down.(node) <- false;
        fire_topo_event t (Node_up node)
      end)

(* ------------------------------------------------------------------ *)
(* Latency and faults                                                   *)
(* ------------------------------------------------------------------ *)

let sample_ctl_latency t ~node =
  match t.cfg.control_latency with
  | Normal_dist { mean; stddev } -> Sim.normal t.sim ~mean ~stddev
  | Geo | Fixed _ -> t.ctl_latency.(node)

let control_latency_of t ~node = sample_ctl_latency t ~node

let corrupt_bytes rng bytes =
  let b = Bytes.copy bytes in
  if Bytes.length b > 0 then begin
    let i = Random.State.int rng (Bytes.length b) in
    let bit = 1 lsl Random.State.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit))
  end;
  b

let duplicate_gap_ms = 0.01

(* Apply a fault verdict to a packet.  The duplicate's extra copy is put
   through the hook at most once more (it may itself be dropped, delayed
   or corrupted), and a [Duplicate] verdict on the copy is absorbed as
   [Deliver] so duplicate-of-duplicate storms are impossible. *)
let fault_instant t name =
  match Sim.trace t.sim with
  | Some sink -> Obs.Trace.instant sink ~cat:"fault" name
  | None -> ()

let rec apply_fault t ~hook ~deliver ~delay ~dup_budget bytes =
  match hook bytes with
  | Deliver -> deliver bytes delay
  | Drop ->
    Obs.Metrics.incr t.stats.h_dropped_by_fault;
    fault_instant t "fault.drop"
  | Delay extra ->
    Obs.Metrics.incr t.stats.h_delayed_by_fault;
    fault_instant t "fault.delay";
    deliver bytes (delay +. Float.max 0.0 extra)
  | Corrupt ->
    Obs.Metrics.incr t.stats.h_corrupted_by_fault;
    fault_instant t "fault.corrupt";
    deliver (corrupt_bytes (Sim.rng t.sim) bytes) delay
  | Duplicate when dup_budget <= 0 -> deliver bytes delay
  | Duplicate ->
    Obs.Metrics.incr t.stats.h_duplicated_by_fault;
    fault_instant t "fault.duplicate";
    deliver bytes delay;
    apply_fault t ~hook ~deliver
      ~delay:(delay +. duplicate_gap_ms)
      ~dup_budget:(dup_budget - 1) bytes

let no_fault _ = Deliver

(* ------------------------------------------------------------------ *)
(* Data plane                                                           *)
(* ------------------------------------------------------------------ *)

let rec notify_observers time node port bytes = function
  | [] -> ()
  | f :: rest ->
    f time node port bytes;
    notify_observers time node port bytes rest

let deliver_data t ~via ~node ~port frame delay =
  Sim.schedule_frame t.sim ~delay { kind = Data; node; port; via; frame }

let transmit t ~from ~port bytes =
  if port < 0 || port >= Array.length t.ports.(from) then
    () (* unbound port: packet leaves the modelled network *)
  else begin
    let neighbor = t.ports.(from).(port) in
    if t.node_down.(from) then () (* a dead node emits nothing *)
    else if t.node_down.(neighbor) || t.link_down.(from).(port) then
      Obs.Metrics.incr t.stats.h_dropped_by_failure
    else begin
      let delay = t.hop_delay.(from).(port) in
      let rx_port = t.rx_port.(from).(port) in
      match t.data_fault with
      | None -> deliver_data t ~via:from ~node:neighbor ~port:rx_port bytes delay
      | Some hook ->
        apply_fault t ~hook:(hook ~from ~to_:neighbor)
          ~deliver:(fun bytes delay ->
            deliver_data t ~via:from ~node:neighbor ~port:rx_port bytes delay)
          ~delay ~dup_budget:1 bytes
    end
  end

(* Pseudo ingress ports a device sees besides its data ports and the
   resubmission port -1. *)
let port_controller = 1000
let port_host = 1001

let host_inject ?(delay = 0.0) t ~node frame =
  Obs.Metrics.incr t.stats.h_data_injected;
  Obs.Flight_recorder.note ~now:(Sim.now t.sim) ~kind:Obs.Flight_recorder.k_inject
    ~node ~flow:(-1) ~a:(Bytes.length frame) ~b:0;
  Sim.schedule_frame t.sim ~delay { kind = Inject; node; port = port_host; via = -1; frame }

let resubmit t ~node frame =
  Obs.Metrics.incr t.stats.h_resubmissions;
  Sim.schedule_frame t.sim ~delay:t.cfg.resubmit_delay_ms
    { kind = Resubmit; node; port = -1; via = node; frame }

(* ------------------------------------------------------------------ *)
(* Control plane                                                        *)
(* ------------------------------------------------------------------ *)

(* The controller is a single-thread FIFO server: each message (in either
   direction) occupies it for [controller_service_ms]. *)
let controller_slot t =
  let now = Sim.now t.sim in
  let background =
    if t.cfg.controller_background_ms <= 0.0 then 0.0
    else Sim.exponential t.sim ~mean:t.cfg.controller_background_ms
  in
  let start = Float.max now t.controller_busy_until in
  t.controller_busy_until <- start +. t.cfg.controller_service_ms +. background;
  t.controller_busy_until -. now

let control_hook t ~dir =
  match t.control_fault with None -> no_fault | Some hook -> hook ~dir

let notify_controller t ~from bytes =
  if t.node_down.(from) then Obs.Metrics.incr t.stats.h_dropped_by_failure
  else begin
    Obs.Metrics.incr t.stats.h_control_to_controller;
    let uplink = sample_ctl_latency t ~node:from in
    apply_fault t
      ~hook:(control_hook t ~dir:(To_controller from))
      ~deliver:(fun frame delay ->
        Sim.schedule_frame t.sim ~delay
          { kind = Ctl_up; node = -1; port = -1; via = from; frame })
      ~delay:uplink ~dup_budget:1 bytes
  end

let controller_transmit t ~to_ bytes =
  Obs.Metrics.incr t.stats.h_control_to_switch;
  (* The controller's FIFO slot is paid once at send time; wire-level
     faults (including duplication) happen after the serialization
     point. *)
  let service_done = controller_slot t in
  let downlink = sample_ctl_latency t ~node:to_ in
  apply_fault t
    ~hook:(control_hook t ~dir:(To_switch to_))
    ~deliver:(fun frame delay ->
      Sim.schedule_frame t.sim ~delay
        { kind = Ctl_down; node = to_; port = port_controller; via = -1; frame })
    ~delay:(service_done +. downlink +. t.cfg.switch_processing_ms)
    ~dup_budget:1 bytes

let rule_update_delay t ~node =
  ignore node;
  match t.cfg.rule_update_mean_ms with
  | None -> 0.0
  | Some mean -> Sim.exponential t.sim ~mean

(* ------------------------------------------------------------------ *)
(* Arrival                                                              *)
(* ------------------------------------------------------------------ *)

(* The simulation's frame handler: each delivery scheduled above fires
   here, as the data it was scheduled with.  A frame in flight is lost,
   and counted in [net.failure.dropped], if its receiver (or, for a data
   frame, its link) went down before it arrived.  A controller-bound
   message then waits for the controller's FIFO server, a timer like any
   other. *)
let deliver t (fr : Sim.frame_event) =
  let node = fr.node in
  match fr.kind with
  | Data ->
    let port = fr.port in
    if t.node_down.(node) || t.link_down.(node).(port) then
      Obs.Metrics.incr t.stats.h_dropped_by_failure
    else begin
      Obs.Metrics.incr t.stats.h_data_packets;
      Obs.Flight_recorder.note ~now:(Sim.now t.sim) ~kind:Obs.Flight_recorder.k_deliver
        ~node ~flow:(-1) ~a:fr.via ~b:port;
      (match Sim.trace t.sim with
       | None -> ()
       | Some sink ->
         Obs.Trace.instant sink ~cat:"net" ~node "data.rx"
           ~attrs:[ Obs.Trace.int "from" fr.via; Obs.Trace.int "port" port ]);
      notify_observers (Sim.now t.sim) node port fr.frame t.observers;
      t.handlers.(node) ~port fr.frame
    end
  | Inject | Ctl_down | Resubmit ->
    if t.node_down.(node) then Obs.Metrics.incr t.stats.h_dropped_by_failure
    else t.handlers.(node) ~port:fr.port fr.frame
  | Ctl_up ->
    let service_done = controller_slot t in
    Sim.schedule t.sim ~delay:service_done (fun () ->
        match t.controller_handler with
        | Some handler -> handler ~from:fr.via fr.frame
        | None -> ())

let create ?(config = default_config) sim topo =
  let t = make config sim topo in
  Sim.set_frame_handler sim (deliver t);
  t
