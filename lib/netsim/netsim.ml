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
}

let default_config =
  {
    switch_processing_ms = 0.5;
    rule_update_mean_ms = None;
    resubmit_delay_ms = 0.25;
    control_latency = Geo;
  }

(* The controller's per-message service time (its FIFO server, [40]). *)
let controller_service_ms = 0.25

type fault = Deliver | Drop | Delay of float | Corrupt | Duplicate

type ctl_direction = To_switch of int | To_controller of int

type topo_event =
  | Link_down of int * int
  | Link_up of int * int
  | Node_down of int
  | Node_up of int

(* The network's counters: one field mutation per event on the hot
   paths, read live through [counters]. *)
type counters = {
  mutable data_packets : int;
  mutable data_injected : int;
  mutable control_to_switch : int;
  mutable control_to_controller : int;
  mutable resubmissions : int;
  mutable dropped_by_fault : int;
  mutable delayed_by_fault : int;
  mutable corrupted_by_fault : int;
  mutable duplicated_by_fault : int;
  mutable dropped_by_failure : int;
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
  stats : counters;
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

let make config sim topo =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  let ports = Array.init n (fun node -> Array.of_list (Graph.neighbors g node)) in
  let port_toward node neighbor =
    let arr = ports.(neighbor) in
    let rec find i = if arr.(i) = node then i else find (i + 1) in
    find 0
  in
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
    stats =
      {
        data_packets = 0;
        data_injected = 0;
        control_to_switch = 0;
        control_to_controller = 0;
        resubmissions = 0;
        dropped_by_fault = 0;
        delayed_by_fault = 0;
        corrupted_by_fault = 0;
        duplicated_by_fault = 0;
        dropped_by_failure = 0;
      };
  }

let sim t = t.sim
let topology t = t.topo
let graph t = t.topo.Topologies.graph
let config t = t.cfg
let counters t = t.stats

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

(* At [at], put the element [ev] names into [ev]'s state, firing [ev]
   only if that flips it.  The element is checked now, not when the
   event fires. *)
let schedule_change t fn ~at ev =
  (match ev with
   | Link_down (u, v) | Link_up (u, v) ->
     if not (Graph.has_edge (graph t) u v) then
       invalid_arg (Printf.sprintf "Netsim.%s: no link %d-%d" fn u v)
   | Node_down node | Node_up node ->
     if node < 0 || node >= Array.length t.node_down then
       invalid_arg (Printf.sprintf "Netsim.%s: no node %d" fn node));
  let up = match ev with Link_up _ | Node_up _ -> true | Link_down _ | Node_down _ -> false in
  Sim.schedule_at t.sim ~time:at (fun () ->
      match ev with
      | (Link_down (u, v) | Link_up (u, v)) when link_is_up t u v <> up ->
        set_link_down t u v (not up);
        fire_topo_event t ev
      | (Node_down node | Node_up node) when node_is_up t ~node <> up ->
        t.node_down.(node) <- not up;
        fire_topo_event t ev
      | _ -> ())

let fail_link t ~u ~v ~at = schedule_change t "fail_link" ~at (Link_down (u, v))
let restore_link t ~u ~v ~at = schedule_change t "restore_link" ~at (Link_up (u, v))
let fail_node t ~node ~at = schedule_change t "fail_node" ~at (Node_down node)
let restore_node t ~node ~at = schedule_change t "restore_node" ~at (Node_up node)

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
    t.stats.dropped_by_fault <- t.stats.dropped_by_fault + 1;
    fault_instant t "fault.drop"
  | Delay extra ->
    t.stats.delayed_by_fault <- t.stats.delayed_by_fault + 1;
    fault_instant t "fault.delay";
    deliver bytes (delay +. Float.max 0.0 extra)
  | Corrupt ->
    t.stats.corrupted_by_fault <- t.stats.corrupted_by_fault + 1;
    fault_instant t "fault.corrupt";
    deliver (corrupt_bytes (Sim.rng t.sim) bytes) delay
  | Duplicate when dup_budget <= 0 -> deliver bytes delay
  | Duplicate ->
    t.stats.duplicated_by_fault <- t.stats.duplicated_by_fault + 1;
    fault_instant t "fault.duplicate";
    deliver bytes delay;
    apply_fault t ~hook ~deliver
      ~delay:(delay +. duplicate_gap_ms)
      ~dup_budget:(dup_budget - 1) bytes

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
      t.stats.dropped_by_failure <- t.stats.dropped_by_failure + 1
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
  t.stats.data_injected <- t.stats.data_injected + 1;
  Obs.Flight_recorder.note ~now:(Sim.now t.sim) ~kind:Obs.Flight_recorder.k_inject
    ~node ~flow:(-1) ~a:(Bytes.length frame) ~b:0;
  Sim.schedule_frame t.sim ~delay { kind = Inject; node; port = port_host; via = -1; frame }

let resubmit t ~node frame =
  t.stats.resubmissions <- t.stats.resubmissions + 1;
  Sim.schedule_frame t.sim ~delay:t.cfg.resubmit_delay_ms
    { kind = Resubmit; node; port = -1; via = node; frame }

(* ------------------------------------------------------------------ *)
(* Control plane                                                        *)
(* ------------------------------------------------------------------ *)

(* The controller is a single-thread FIFO server: each message (in either
   direction) occupies it for [controller_service_ms]. *)
let controller_slot t =
  let now = Sim.now t.sim in
  let start = Float.max now t.controller_busy_until in
  t.controller_busy_until <- start +. controller_service_ms;
  t.controller_busy_until -. now

(* Both control-channel sends schedule their frame directly when no
   control-fault hook is installed: no delivery closure, no direction
   block, no boxed delay on the way. *)
let notify_controller t ~from bytes =
  if t.node_down.(from) then t.stats.dropped_by_failure <- t.stats.dropped_by_failure + 1
  else begin
    t.stats.control_to_controller <- t.stats.control_to_controller + 1;
    let uplink = sample_ctl_latency t ~node:from in
    match t.control_fault with
    | None ->
      Sim.schedule_frame t.sim ~delay:uplink
        { kind = Ctl_up; node = -1; port = -1; via = from; frame = bytes }
    | Some hook ->
      apply_fault t ~hook:(hook ~dir:(To_controller from))
        ~deliver:(fun frame delay ->
          Sim.schedule_frame t.sim ~delay
            { kind = Ctl_up; node = -1; port = -1; via = from; frame })
        ~delay:uplink ~dup_budget:1 bytes
  end

let controller_transmit t ~to_ bytes =
  t.stats.control_to_switch <- t.stats.control_to_switch + 1;
  (* The controller's FIFO slot is paid once at send time; wire-level
     faults (including duplication) happen after the serialization
     point. *)
  let service_done = controller_slot t in
  let downlink = sample_ctl_latency t ~node:to_ in
  let delay = service_done +. downlink +. t.cfg.switch_processing_ms in
  match t.control_fault with
  | None ->
    Sim.schedule_frame t.sim ~delay
      { kind = Ctl_down; node = to_; port = port_controller; via = -1; frame = bytes }
  | Some hook ->
    apply_fault t ~hook:(hook ~dir:(To_switch to_))
      ~deliver:(fun frame delay ->
        Sim.schedule_frame t.sim ~delay
          { kind = Ctl_down; node = to_; port = port_controller; via = -1; frame })
      ~delay ~dup_budget:1 bytes

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
   and counted in [dropped_by_failure], if its receiver (or, for a data
   frame, its link) went down before it arrived.  A controller-bound
   message then waits for the controller's FIFO server, a timer like any
   other. *)
let deliver t (fr : Sim.frame_event) =
  let node = fr.node in
  match fr.kind with
  | Data ->
    let port = fr.port in
    if t.node_down.(node) || t.link_down.(node).(port) then
      t.stats.dropped_by_failure <- t.stats.dropped_by_failure + 1
    else begin
      t.stats.data_packets <- t.stats.data_packets + 1;
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
    if t.node_down.(node) then t.stats.dropped_by_failure <- t.stats.dropped_by_failure + 1
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
