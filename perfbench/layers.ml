(* Outside-in layer timing for the traced mode.

   Every span is taken in the benchmark's own code, around a call into a
   layer's public function or at a public observation hook; nothing
   inside the library is instrumented.  The episode loop drives the
   simulation one [Sim.step] at a time and times each step.  A step is
   attributed by what ran in it:

   - a data delivery: [Netsim.on_delivery] observers registered before
     and after the traffic auditor split the step into the auditor's hop
     recording ([hop]) and everything from there to the end of the step —
     the switch pipeline, its verification and the sends it makes
     ([data]);
   - a controller frame: the [Netsim.set_controller] wrapper around
     [Controller.handle] ([handle]);
   - a benchmark arrival (burst, cycle start or cycle boundary): spans
     around [Plane.prepare_batch], [Plane.push],
     [Invariants.check_structural] and [Traffic.drain];
   - anything else (UIM deliveries, timers, probe injectors) counts whole
     as [other].

   What a step spends outside its spans (dispatch, netsim delivery before
   the observers, bookkeeping in an arrival) is [unattributed].  Spans
   never nest, so a step whose spans exceed its own duration is a
   double count; [overlaps] counts them and must stay 0.

   With [on = false] every entry point is a single branch, so the
   untraced mode runs the same loop at full speed. *)

module Sim = Dessim.Sim

let now () = Int64.to_int (Dessim.Wallclock.now_ns ())

type kind = Other | Data | Ctl | Arrival

type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }

(* Growable unboxed vectors for the queue-replay capture. *)
type ivec = { mutable ia : int array; mutable in_ : int }
type fvec = { mutable fa : float array; mutable fn : int }

let ipush v x =
  if v.in_ = Array.length v.ia then begin
    let a = Array.make (2 * Array.length v.ia) 0 in
    Array.blit v.ia 0 a 0 v.in_;
    v.ia <- a
  end;
  v.ia.(v.in_) <- x;
  v.in_ <- v.in_ + 1

let fpush v x =
  if v.fn = Array.length v.fa then begin
    let a = Array.make (2 * Array.length v.fa) 0.0 in
    Array.blit v.fa 0 a 0 v.fn;
    v.fa <- a
  end;
  v.fa.(v.fn) <- x;
  v.fn <- v.fn + 1

(* Frames kept for the wire replay: the first [frame_cap] seen. *)
let frame_cap = 50_000

type t = {
  on : bool;
  mutable kind : kind;
  mutable in_step : int;      (* ns covered by spans in the current step *)
  mutable data_mark : int;
  mutable hop_mark : int;
  step : acc;                 (* every dispatched event *)
  data : acc;
  hop : acc;
  handle : acc;
  prepare : acc;
  push : acc;
  check : acc;
  drain : acc;
  other : acc;
  mutable unattributed_ns : int;
  mutable overlaps : int;
  mutable prepared : int;     (* updates out of prepare_batch *)
  mutable uims : int;
  mutable update_words : float; (* minor words inside prepare + push *)
  mutable pending_sum : int;
  mutable pending_max : int;
  pend : ivec;                (* queue depth before each step *)
  pops : fvec;                (* clock after each step: the popped time *)
  frames : Bytes.t array;
  mutable frame_n : int;
}

let create ~on =
  {
    on;
    kind = Other;
    in_step = 0;
    data_mark = 0;
    hop_mark = 0;
    step = acc ();
    data = acc ();
    hop = acc ();
    handle = acc ();
    prepare = acc ();
    push = acc ();
    check = acc ();
    drain = acc ();
    other = acc ();
    unattributed_ns = 0;
    overlaps = 0;
    prepared = 0;
    uims = 0;
    update_words = 0.0;
    pending_sum = 0;
    pending_max = 0;
    pend = { ia = Array.make (if on then 1024 else 1) 0; in_ = 0 };
    pops = { fa = Array.make (if on then 1024 else 1) 0.0; fn = 0 };
    frames = Array.make (if on then frame_cap else 0) Bytes.empty;
    frame_n = 0;
  }

let capture t bytes =
  if t.frame_n < Array.length t.frames then begin
    t.frames.(t.frame_n) <- Bytes.copy bytes;
    t.frame_n <- t.frame_n + 1
  end

(* [span t a f] runs [f ()], charging its wall time to [a]. *)
let span t a f =
  if not t.on then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let d = now () - t0 in
    a.ns <- a.ns + d;
    a.calls <- a.calls + 1;
    t.in_step <- t.in_step + d;
    r
  end

(* A span that also charges its minor-heap allocation to the update
   path ([controller.minor_words_per_update]). *)
let update_span t a f =
  if not t.on then f ()
  else begin
    let w0 = Gc.minor_words () in
    let r = span t a f in
    t.update_words <- t.update_words +. (Gc.minor_words () -. w0);
    r
  end

(* Hooks called from the episode's observers and closures. *)

let arrival t = if t.on then t.kind <- Arrival

let delivery_start t bytes =
  if t.on then begin
    capture t bytes;
    t.kind <- Data;
    t.data_mark <- now ()
  end

let delivery_switch t = if t.on then t.hop_mark <- now ()

let controller_frame t bytes f =
  if not t.on then f ()
  else begin
    capture t bytes;
    t.kind <- Ctl;
    span t t.handle f
  end

(* One step of the simulation, timed and attributed when [on]. *)
let step t sim =
  if not t.on then Sim.step sim
  else begin
    let pending = Sim.pending sim in
    t.kind <- Other;
    t.in_step <- 0;
    let t0 = now () in
    let ok = Sim.step sim in
    let t1 = now () in
    if ok then begin
      let d = t1 - t0 in
      t.step.ns <- t.step.ns + d;
      t.step.calls <- t.step.calls + 1;
      t.pending_sum <- t.pending_sum + pending;
      if pending > t.pending_max then t.pending_max <- pending;
      ipush t.pend pending;
      fpush t.pops (Sim.now sim);
      (match t.kind with
       | Other ->
         t.other.ns <- t.other.ns + d;
         t.other.calls <- t.other.calls + 1;
         t.in_step <- d
       | Data ->
         let hop = t.hop_mark - t.data_mark and data = t1 - t.hop_mark in
         t.hop.ns <- t.hop.ns + hop;
         t.data.ns <- t.data.ns + data;
         t.data.calls <- t.data.calls + 1;
         t.in_step <- t.in_step + hop + data
       | Ctl | Arrival -> ());
      let left = d - t.in_step in
      if left < 0 then t.overlaps <- t.overlaps + 1;
      t.unattributed_ns <- t.unattributed_ns + left
    end;
    ok
  end

let s ns = float_of_int ns *. 1e-9

(* The rows that must add up to [dessim.step_s]. *)
let rows t =
  [
    ("switch.data_s", s t.data.ns);
    ("traffic.hop_s", s t.hop.ns);
    ("controller.handle_s", s t.handle.ns);
    ("controller.prepare_s", s t.prepare.ns);
    ("controller.push_s", s t.push.ns);
    ("invariants.check_s", s t.check.ns);
    ("traffic.drain_s", s t.drain.ns);
    ("other.step_s", s t.other.ns);
    ("unattributed_s", s t.unattributed_ns);
  ]
