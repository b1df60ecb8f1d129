type frame_kind = Data | Inject | Resubmit | Ctl_up | Ctl_down

type frame_event = { kind : frame_kind; node : int; port : int; via : int; frame : Bytes.t }

type candidate = { c_time : float; c_seq : int; c_frame : frame_event option }

type chooser = now:float -> candidate array -> int

type stats = { st_events : int; st_wall_s : float; st_events_per_s : float }

(* A queued event is a timer's [unit -> unit] closure or a [frame_event]
   record, stored as it is: a record block has tag 0 and a closure never
   does ([Closure_tag], or [Infix_tag] inside a set of mutually recursive
   functions), so [is_frame] tells them apart from the header alone and
   no timer pays for a constructor block around it. *)
type event = Obj.t

let[@inline] is_frame (e : event) = Obj.tag e = 0

let frame_of (e : event) : frame_event option =
  if is_frame e then Some (Obj.obj e) else None

let no_frame_handler (_ : frame_event) =
  invalid_arg "Sim: a frame event fired with no frame handler installed"

type t = {
  mutable clock : float;
  queue : event Event_heap.t;
  mutable on_frame : frame_event -> unit;
  random : Random.State.t;
  mutable chooser : chooser option;
  mutable chooser_window : float;
  mutable events : int;
  mutable wall_s : float;
  (* Observability tick: fired from [dispatch] whenever the clock crosses
     a multiple of [tick_every], strictly off the event heap — the tick
     never schedules events, never consumes RNG and never perturbs
     [pending], so installing one cannot change a run's event schedule,
     chaos hash or mc fingerprint. *)
  mutable tick_every : float;  (* 0.0 = disabled *)
  mutable tick_next : float;
  mutable on_tick : (now:float -> unit) option;
  trace : Obs.Trace.sink option;
}

let create ?(seed = 0x5eed) ?trace () =
  let t =
    {
      clock = 0.0;
      queue = Event_heap.create ();
      on_frame = no_frame_handler;
      random = Random.State.make [| seed |];
      chooser = None;
      chooser_window = 0.0;
      events = 0;
      wall_s = 0.0;
      tick_every = 0.0;
      tick_next = 0.0;
      on_tick = None;
      trace;
    }
  in
  Option.iter (fun sink -> Obs.Trace.adopt sink ~clock:(fun () -> t.clock)) trace;
  t

let now t = t.clock
let trace t = t.trace
let rng t = t.random
let compact t = Event_heap.compact t.queue

let set_chooser ?(window = 0.0) t chooser =
  if not (Float.is_finite window) || window < 0.0 then
    invalid_arg "Sim.set_chooser: negative or non-finite window";
  t.chooser <- Some chooser;
  t.chooser_window <- window

let clear_chooser t =
  t.chooser <- None;
  t.chooser_window <- 0.0

let set_frame_handler t handler =
  if t.on_frame != no_frame_handler then
    invalid_arg "Sim.set_frame_handler: this simulation already has a frame handler";
  t.on_frame <- handler

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Sim.schedule_at: non-finite time";
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  Event_heap.push t.queue ~time (Obj.repr f)

let push_after t ~delay (e : event) =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Sim.schedule: negative or non-finite delay";
  Event_heap.push t.queue ~time:(t.clock +. delay) e

let schedule t ~delay (f : unit -> unit) = push_after t ~delay (Obj.repr f)
let schedule_frame t ~delay (fr : frame_event) = push_after t ~delay (Obj.repr fr)

(* Catch-up loop: a dispatch that jumps several tick periods ahead fires
   every intermediate tick, each stamped with its own boundary time, so
   windows stay fixed-width even across idle stretches. *)
let fire_ticks t =
  match t.on_tick with
  | Some cb when t.tick_every > 0.0 ->
    while t.tick_next <= t.clock do
      let at = t.tick_next in
      t.tick_next <- at +. t.tick_every;
      cb ~now:at
    done
  | Some _ | None -> ()

let set_tick t ~every_ms cb =
  if not (Float.is_finite every_ms) || every_ms <= 0.0 then
    invalid_arg "Sim.set_tick: tick period must be positive";
  t.tick_every <- every_ms;
  (* First boundary strictly after the current clock.  The float
     quotient is inexact in both directions (0.6 /. 0.3 = 1.999…, so the
     naive floor+1 boundary lands exactly *at* the clock and fires an
     extra tick; an overshooting quotient would skip one), so the floor
     candidate is stepped until it is the first multiple strictly after
     the clock. *)
  let next = ref ((Float.floor (t.clock /. every_ms) +. 1.0) *. every_ms) in
  while !next <= t.clock do
    next := !next +. every_ms
  done;
  while !next -. every_ms > t.clock do
    next := !next -. every_ms
  done;
  t.tick_next <- !next;
  t.on_tick <- Some cb

let clear_tick t =
  t.tick_every <- 0.0;
  t.on_tick <- None

let[@inline] fire t (e : event) =
  if is_frame e then t.on_frame (Obj.obj e) else (Obj.obj e : unit -> unit) ()

let dispatch t ~time e =
  t.clock <- time;
  t.events <- t.events + 1;
  if t.on_tick <> None then fire_ticks t;
  (* The "sim" category is excluded by default; enabling it gives a span
     per dispatched event for scheduler-level profiling. *)
  match t.trace with
  | None -> fire t e
  | Some sink ->
    Obs.Trace.with_span sink ~cat:"sim" "dispatch"
      ~attrs:[ Obs.Trace.float "time" time ]
      (fun () -> fire t e)

(* Choice-point path: collect every pending event within the reorder
   window of the earliest one (sorted by the default (time, seq) order,
   so index 0 is what the plain heap would deliver), let the installed
   policy pick one, and execute it.  Picking a later event models extra
   network delay on the earlier ones, so the clock only ever moves
   forward: it jumps to the *chosen* event's nominal time if that is
   ahead, and stays put if the chosen event was nominally due earlier. *)
let step_choose t chooser =
  if Event_heap.is_empty t.queue then false
  else begin
    let horizon = Event_heap.min_time t.queue +. t.chooser_window in
    let candidates =
      Event_heap.fold t.queue ~init:[] ~f:(fun acc ~time ~seq ~payload ->
          if time <= horizon then
            { c_time = time; c_seq = seq; c_frame = frame_of payload } :: acc
          else acc)
    in
    let candidates =
      Array.of_list
        (List.sort
           (fun a b ->
             match compare a.c_time b.c_time with 0 -> compare a.c_seq b.c_seq | c -> c)
           candidates)
    in
    let idx = chooser ~now:t.clock candidates in
    if idx < 0 || idx >= Array.length candidates then
      invalid_arg
        (Printf.sprintf "Sim.step: chooser picked %d of %d candidates" idx
           (Array.length candidates));
    (match Event_heap.remove_seq t.queue candidates.(idx).c_seq with
     | None -> assert false (* the candidate was just enumerated *)
     | Some (time, e) ->
       dispatch t ~time:(Float.max t.clock time) e;
       true)
  end

(* The default path reads the earliest time and takes its payload
   without building an option or a tuple per event. *)
let step t =
  match t.chooser with
  | Some chooser -> step_choose t chooser
  | None ->
    let q = t.queue in
    if Event_heap.is_empty q then false
    else begin
      let time = Event_heap.min_time q in
      dispatch t ~time (Event_heap.take_min q);
      true
    end

let run ?until t =
  let horizon_reached () =
    Event_heap.is_empty t.queue
    || match until with Some horizon -> Event_heap.min_time t.queue > horizon | None -> false
  in
  let rec loop processed =
    if horizon_reached () then processed
    else if step t then loop (processed + 1)
    else processed
  in
  let started = Wallclock.now_s () in
  let processed = loop 0 in
  (* A bounded run covers the whole interval: the clock advances to the
     horizon and the catch-up ticks between the last dispatched event
     and the horizon fire, so fixed-width Timeseries windows reach the
     horizon instead of silently stopping at the last event. *)
  (match until with
   | Some horizon when Float.is_finite horizon && horizon > t.clock ->
     t.clock <- horizon;
     if t.on_tick <> None then fire_ticks t
   | _ -> ());
  t.wall_s <- t.wall_s +. Wallclock.elapsed_s ~since:started;
  processed

let stats t =
  let per_s = if t.wall_s > 0.0 then float_of_int t.events /. t.wall_s else 0.0 in
  { st_events = t.events; st_wall_s = t.wall_s; st_events_per_s = per_s }

let reset_stats t =
  t.events <- 0;
  t.wall_s <- 0.0

let pending t = Event_heap.size t.queue

let fold_pending t ~init ~f =
  Event_heap.fold t.queue ~init ~f:(fun acc ~time ~seq ~payload ->
      f acc ~time ~seq ~frame:(frame_of payload))

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Sim.exponential: mean must be positive";
  let u = Random.State.float t.random 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then Float.min_float else u in
  -.mean *. log u

let normal t ~mean ~stddev =
  let u1 = max Float.min_float (Random.State.float t.random 1.0) in
  let u2 = Random.State.float t.random 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  Float.max 0.0 (mean +. (stddev *. z))

let uniform t ~bound = Random.State.float t.random bound
let uniform_int t ~bound = Random.State.int t.random bound
