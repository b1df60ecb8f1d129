(* Always-on flight recorder: a fixed-capacity ring of compact trace
   events that survives at scale-engine speed.

   The trace sink allocates one boxed event per record, which is why
   the scale and soak harnesses run with it disabled — and why, until
   now, the exact runs where an invariant violation or abort storm
   mattered most left no forensic record.  The recorder keeps the last N
   events in struct-of-arrays form (one unboxed [float array] for
   timestamps plus flat [int array]s for the payload), so recording is a
   handful of array stores: no per-event allocation beyond the slots
   preallocated at [create] time, and a single load + branch when no
   recorder is installed.

   On a trigger (invariant violation, abort, give-up, stuck update, leak
   reading, SLO breach) the ring's current window is dumped as a
   Perfetto-loadable Chrome trace-event JSON file of trace instants — the
   plane's black box.  Dumps are capped per recorder so an abort storm cannot flood the
   incident directory; triggers beyond the cap still count.

   Determinism: the recorder never consumes simulator randomness and
   never schedules events; timestamps arrive explicitly from call sites
   that already hold the simulated clock.  Two same-seed runs produce
   byte-identical snapshots — asserted by the test suite. *)

(* Event kinds, as dense int codes so the ring stays unboxed.  [a]/[b]
   below are kind-specific small payloads (version, port, peer node...). *)
let k_inject = 0     (* host probe injected            a=seq              *)
let k_deliver = 1    (* data packet delivered          a=from, b=port     *)
let k_push = 2       (* controller pushed an update    a=version          *)
let k_report = 3     (* success UFM recorded           a=version, b=node  *)
let k_retransmit = 4 (* §11 retransmission             a=version, b=try   *)
let k_reroute = 5    (* §11 reroute                    a=version          *)
let k_resync = 6     (* §11 resync                     a=version          *)
let k_abort = 7      (* §11 abort/rollback             a=version          *)
let k_give_up = 8    (* §11 give-up                    a=version          *)
let k_topo = 9       (* link/node down/up              a=peer, b=up?1:0   *)
let k_violation = 10 (* invariant violation                               *)
let k_leak = 11      (* soak leak reading                                 *)
let k_stuck = 12     (* stuck update                   a=version          *)
let k_slo = 13       (* SLO breach                                        *)
let k_trigger = 14   (* incident trigger marker                           *)

let kind_names =
  [|
    "inject"; "deliver"; "push"; "report"; "retransmit"; "reroute"; "resync";
    "abort"; "give_up"; "topo"; "violation"; "leak"; "stuck"; "slo"; "trigger";
  |]

let kind_name k =
  if k >= 0 && k < Array.length kind_names then kind_names.(k)
  else "k" ^ string_of_int k

type t = {
  cap : int;
  e_ts : float array;   (* simulated ms; unboxed float array *)
  e_kind : int array;
  e_node : int array;   (* -1 = controller / global *)
  e_flow : int array;   (* -1 = unknown *)
  e_a : int array;
  e_b : int array;
  mutable head : int;   (* next write slot *)
  mutable total : int;  (* events ever recorded *)
  incident_dir : string option;
  max_incidents : int;
  mutable incidents : int;  (* snapshot files written *)
  mutable triggers : int;   (* triggers fired (dumped or not) *)
}

let default_capacity = 8192

let create ?(capacity = default_capacity) ?incident_dir
    ?(max_incidents = 32) () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity < 1";
  {
    cap = capacity;
    e_ts = Array.make capacity 0.0;
    e_kind = Array.make capacity 0;
    e_node = Array.make capacity 0;
    e_flow = Array.make capacity 0;
    e_a = Array.make capacity 0;
    e_b = Array.make capacity 0;
    head = 0;
    total = 0;
    incident_dir;
    max_incidents;
    incidents = 0;
    triggers = 0;
  }

let total t = t.total
let dropped t = max 0 (t.total - t.cap)
let triggers t = t.triggers
let incidents t = t.incidents

(* --- the global recorder ---------------------------------------------- *)

let current : t option ref = ref None

let install r = current := Some r
let uninstall () = current := None
let get () = !current

(* --- recording ------------------------------------------------------ *)

let[@inline] record r ~now ~kind ~node ~flow ~a ~b =
  let i = r.head in
  r.e_ts.(i) <- now;
  r.e_kind.(i) <- kind;
  r.e_node.(i) <- node;
  r.e_flow.(i) <- flow;
  r.e_a.(i) <- a;
  r.e_b.(i) <- b;
  r.head <- (if i + 1 = r.cap then 0 else i + 1);
  r.total <- r.total + 1

(* The hot-path entry point: one load + branch when no recorder is
   installed, a few array stores when one is. *)
let[@inline] note ~now ~kind ~node ~flow ~a ~b =
  match !current with None -> () | Some r -> record r ~now ~kind ~node ~flow ~a ~b

(* --- introspection -------------------------------------------------- *)

type event = {
  ev_ts : float;
  ev_kind : int;
  ev_node : int;
  ev_flow : int;
  ev_a : int;
  ev_b : int;
}

(* Ring contents in chronological order (oldest retained event first). *)
let events r =
  let n = min r.total r.cap in
  let start = if r.total <= r.cap then 0 else r.head in
  List.init n (fun j ->
      let i = (start + j) mod r.cap in
      {
        ev_ts = r.e_ts.(i);
        ev_kind = r.e_kind.(i);
        ev_node = r.e_node.(i);
        ev_flow = r.e_flow.(i);
        ev_a = r.e_a.(i);
        ev_b = r.e_b.(i);
      })

let clear r =
  r.head <- 0;
  r.total <- 0

(* --- Perfetto export ------------------------------------------------ *)

(* An incident snapshot is the ring window as trace instants (category
   "recorder", one per slot, the payload in [flow]/[a]/[b]) followed by
   the trigger marker carrying the reason, so a loaded snapshot shows
   what tripped the dump.  [Trace.to_chrome] writes it, with the same
   conventions as any other trace. *)
let snapshot_events r ~now ~reason =
  let instant ~name ~node ~ts attrs =
    Trace.Instant { name; cat = "recorder"; node; ts; parent = 0; attrs }
  in
  List.map
    (fun e ->
      instant ~name:(kind_name e.ev_kind) ~node:e.ev_node ~ts:e.ev_ts
        [ Trace.int "flow" e.ev_flow; Trace.int "a" e.ev_a; Trace.int "b" e.ev_b ])
    (events r)
  @ [
      instant ~name:("incident: " ^ reason) ~node:(-1) ~ts:now
        [
          Trace.str "reason" reason;
          Trace.int "events_retained" (min r.total r.cap);
          Trace.int "events_total" r.total;
          Trace.int "events_dropped" (dropped r);
        ];
    ]

(* Reason fragment made filename-safe. *)
let slug reason =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    reason

let mkdir_p dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

(* Fire a trigger on an installed recorder: record the trigger event in
   the ring, then — when an incident directory is configured and the
   per-run cap is not exhausted — dump the window as
   [incident-<seq>-<reason>.json].  Returns the written path, if any. *)
let trigger ~now ~reason =
  match !current with
  | None -> None
  | Some r ->
    r.triggers <- r.triggers + 1;
    record r ~now ~kind:k_trigger ~node:(-1) ~flow:(-1) ~a:r.triggers ~b:0;
    (match r.incident_dir with
     | Some dir when r.incidents < r.max_incidents ->
       mkdir_p dir;
       let path =
         Filename.concat dir
           (Printf.sprintf "incident-%03d-%s.json" r.incidents (slug reason))
       in
       r.incidents <- r.incidents + 1;
       let oc = open_out path in
       output_string oc (Trace.to_chrome ~pretty:true (snapshot_events r ~now ~reason));
       close_out oc;
       Some path
     | Some _ | None -> None)
