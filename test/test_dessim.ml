(* Unit and property tests for the discrete-event simulation kernel. *)

module Sim = Dessim.Sim
module Event_heap = Dessim.Event_heap

let test_heap_ordering () =
  let heap = Event_heap.create () in
  Event_heap.push heap ~time:3.0 "c";
  Event_heap.push heap ~time:1.0 "a";
  Event_heap.push heap ~time:2.0 "b";
  let pop () = match Event_heap.pop heap with Some (_, x) -> x | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "empty" true (Event_heap.is_empty heap)

let test_heap_fifo_ties () =
  (* Events at the same instant must pop in scheduling order. *)
  let heap = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push heap ~time:5.0 i
  done;
  let order = List.init 10 (fun _ -> match Event_heap.pop heap with Some (_, i) -> i | None -> -1) in
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) order

let test_heap_remove_interior_sift_up () =
  (* Build the array shape [0; 10; 1; 11; 12; 2; 3] (push order keeps it
     exactly that).  Removing seq 3 (time 11) backfills its interior slot
     with the array tail (time 3), which is smaller than the slot's
     parent (10): the hole must sift *up*, not down, or the heap
     invariant silently breaks and the drain comes out misordered. *)
  let h = Event_heap.create () in
  List.iteri (fun i t -> Event_heap.push h ~time:t i) [ 0.0; 10.0; 1.0; 11.0; 12.0; 2.0; 3.0 ];
  (match Event_heap.remove_seq h 3 with
   | Some (t, 3) -> Alcotest.(check (float 0.0)) "victim time" 11.0 t
   | _ -> Alcotest.fail "remove_seq 3 returned the wrong entry");
  let drained = List.init 6 (fun _ -> Option.get (Event_heap.pop h)) in
  Alcotest.(check (list (pair (float 0.0) int)))
    "order intact after interior removal"
    [ (0.0, 0); (1.0, 2); (2.0, 5); (3.0, 6); (10.0, 1); (12.0, 4) ]
    drained

let test_heap_compact_capacity () =
  let h = Event_heap.create () in
  for i = 1 to 5000 do
    Event_heap.push h ~time:(float_of_int i) i
  done;
  for _ = 1 to 4900 do
    ignore (Event_heap.pop h)
  done;
  let grown = Event_heap.capacity h in
  Event_heap.compact h;
  Alcotest.(check bool) "capacity released" true (Event_heap.capacity h < grown);
  Alcotest.(check int) "entries kept" 100 (Event_heap.size h);
  let rec drain last n =
    match Event_heap.pop h with
    | None -> n
    | Some (t, _) ->
      Alcotest.(check bool) "nondecreasing after compact" true (t >= last);
      drain t (n + 1)
  in
  Alcotest.(check int) "all drained" 100 (drain neg_infinity 0)

let test_compact_burst_order_independent () =
  (* The soak monitor compacts at each cycle boundary so its leak
     readings measure pending events, not the high-water mark of the
     busiest burst: after compact, two heaps holding the same pending
     set must report the same capacity no matter how large a burst each
     survived. *)
  let residual h =
    Event_heap.compact h;
    Event_heap.capacity h
  in
  let spike = Event_heap.create () in
  for i = 1 to 10_000 do
    Event_heap.push spike ~time:(float_of_int i) ()
  done;
  for _ = 1 to 9_900 do
    ignore (Event_heap.pop spike)
  done;
  let calm = Event_heap.create () in
  for i = 1 to 100 do
    Event_heap.push calm ~time:(float_of_int i) ()
  done;
  Alcotest.(check int) "same residual capacity" (residual calm) (residual spike)

(* The heap must never keep a payload alive once it has left: pending
   thunks capture whole simulation worlds.  Payloads are pushed from a
   function that keeps no reference to them, watched through a weak
   array, and after each of [pop], [remove_seq], [compact] and [clear] a
   full major collection must have reclaimed exactly the payloads that
   left the heap and none of those still pending. *)
let n_watched = 300

let[@inline never] push_watched h watch =
  for i = 0 to n_watched - 1 do
    let payload = ref i in
    Weak.set watch i (Some payload);
    Event_heap.push h ~time:(float_of_int (i mod 37)) payload
  done

let test_heap_releases_payloads () =
  let h = Event_heap.create () in
  let watch = Weak.create n_watched in
  push_watched h watch;
  let left = Array.make n_watched false in
  let check_live what =
    Gc.full_major ();
    Array.iteri
      (fun i gone ->
        if Weak.check watch i = gone then
          Alcotest.failf "after %s: payload %d %s" what i
            (if gone then "still retained" else "collected while pending"))
      left
  in
  check_live "push";
  for _ = 1 to 100 do
    match Event_heap.pop h with Some (_, p) -> left.(!p) <- true | None -> assert false
  done;
  check_live "pop";
  (* Seqs equal push indices here; remove every seventh still-pending one. *)
  for seq = 0 to n_watched - 1 do
    if seq mod 7 = 3 then
      match Event_heap.remove_seq h seq with
      | Some (_, p) -> left.(!p) <- true
      | None -> ()
  done;
  check_live "remove_seq";
  for _ = 1 to 120 do
    match Event_heap.pop h with Some (_, p) -> left.(!p) <- true | None -> assert false
  done;
  let before = Event_heap.capacity h in
  Event_heap.compact h;
  Alcotest.(check bool) "compact shrank the heap" true (Event_heap.capacity h < before);
  check_live "compact";
  Event_heap.clear h;
  Array.fill left 0 n_watched true;
  check_live "clear";
  (* [h] stays reachable through the last check, so a cleared table
     cannot pass by being collected whole. *)
  Alcotest.(check int) "cleared" 0 (Event_heap.size h)

let test_sim_compact_mid_run () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.schedule sim ~delay:10.0 (fun () -> trace := ("b", Sim.now sim) :: !trace);
  Sim.schedule sim ~delay:5.0 (fun () ->
      Sim.compact sim (* quiesce-point shrink mid-run is transparent *);
      trace := ("a", Sim.now sim) :: !trace);
  let events = Sim.run sim in
  Alcotest.(check int) "two events" 2 events;
  Alcotest.(check (list (pair string (float 0.001)))) "ordered with timestamps"
    [ ("a", 5.0); ("b", 10.0) ]
    (List.rev !trace)

let test_clock_advances () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.schedule sim ~delay:10.0 (fun () -> trace := ("b", Sim.now sim) :: !trace);
  Sim.schedule sim ~delay:5.0 (fun () -> trace := ("a", Sim.now sim) :: !trace);
  let events = Sim.run sim in
  Alcotest.(check int) "two events" 2 events;
  Alcotest.(check (list (pair string (float 0.001)))) "ordered with timestamps"
    [ ("a", 5.0); ("b", 10.0) ]
    (List.rev !trace)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick n =
    if n > 0 then begin
      incr count;
      Sim.schedule sim ~delay:1.0 (fun () -> tick (n - 1))
    end
  in
  Sim.schedule sim ~delay:0.0 (fun () -> tick 100);
  let _ = Sim.run sim in
  Alcotest.(check int) "hundred ticks" 100 !count;
  Alcotest.(check (float 0.001)) "clock at 100" 100.0 (Sim.now sim)

let test_run_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.schedule sim ~delay:t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  let _ = Sim.run ~until:2.5 sim in
  Alcotest.(check (list (float 0.001))) "only before horizon" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check int) "rest pending" 2 (Sim.pending sim)

let test_set_tick_boundary () =
  (* Adversarial (clock, period) pairs where the float quotient is
     inexact in either direction: installing a tick with the clock
     sitting exactly on (or a hair off) a period multiple must put the
     first boundary strictly *after* the clock — no phantom tick at the
     install instant (the historical off-by-one: 0.6 /. 0.3 floors to 1,
     landing the "next" boundary exactly at the clock), no skipped
     period either way, and period-spaced ticks thereafter.  Over a
     10.5-period stretch that is 10 ticks, or 11 when the clock sits a
     hair below a grid multiple. *)
  List.iter
    (fun (start, period) ->
      let sim = Sim.create () in
      let ticks = ref [] in
      Sim.schedule sim ~delay:start (fun () ->
          Sim.set_tick sim ~every_ms:period (fun ~now -> ticks := now :: !ticks));
      Sim.schedule sim ~delay:(start +. (10.5 *. period)) ignore;
      ignore (Sim.run sim);
      let ticks = List.rev !ticks in
      let label fmt =
        Printf.sprintf ("%s for start=%.17g period=%g" ^^ "") fmt start period
      in
      let n = List.length ticks in
      Alcotest.(check bool) (label "10 or 11 ticks") true (n = 10 || n = 11);
      Alcotest.(check bool) (label "no tick at or before install") true
        (List.for_all (fun at -> at > start) ticks);
      Alcotest.(check bool) (label "first tick within one period") true
        (List.hd ticks <= start +. period +. 1e-9);
      let rec spaced = function
        | a :: (b :: _ as rest) ->
          Float.abs (b -. a -. period) < 1e-9 && spaced rest
        | _ -> true
      in
      Alcotest.(check bool) (label "ticks period-spaced") true (spaced ticks))
    [ (0.6, 0.3); (0.1 +. 0.2, 0.1); (0.7, 0.1); (1.2, 0.4); (0.9, 0.3); (2.4, 0.3) ]

let test_run_until_fires_final_ticks () =
  (* A bounded run must cover the whole interval: the clock lands on the
     horizon and the catch-up ticks between the last event and the
     horizon fire, so fixed-width windows do not silently stop at the
     last event. *)
  let sim = Sim.create () in
  let ticks = ref [] in
  Sim.set_tick sim ~every_ms:0.25 (fun ~now -> ticks := now :: !ticks);
  Sim.schedule sim ~delay:0.2 ignore;
  ignore (Sim.run ~until:1.0 sim);
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 1.0 (Sim.now sim);
  Alcotest.(check (list (float 1e-9))) "ticks cover the bounded interval"
    [ 0.25; 0.5; 0.75; 1.0 ]
    (List.rev !ticks)

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule: negative or non-finite delay")
    (fun () -> Sim.schedule sim ~delay:(-1.0) ignore)

(* Timers and frames share the queue, told apart by block tag: a frame
   record goes to the frame handler, and every closure runs, including
   the second of a set of mutually recursive functions, whose value
   points inside the shared closure block (an infix block). *)
let test_frames_and_timers () =
  let frame node = { Sim.kind = Sim.Data; node; port = 0; via = -1; frame = Bytes.empty } in
  let bare = Sim.create () in
  Sim.schedule_frame bare ~delay:0.0 (frame 0);
  Alcotest.check_raises "a frame needs a handler"
    (Invalid_argument "Sim: a frame event fired with no frame handler installed")
    (fun () -> ignore (Sim.step bare));
  let sim = Sim.create () in
  let log = ref [] in
  Sim.set_frame_handler sim (fun fr -> log := Printf.sprintf "frame %d" fr.Sim.node :: !log);
  let rec ping () = log := "ping" :: !log; if List.length !log > 9 then pong ()
  and pong () = log := "pong" :: !log; if List.length !log > 9 then ping () in
  Sim.schedule_frame sim ~delay:1.0 (frame 1);
  Sim.schedule sim ~delay:2.0 ping;
  Sim.schedule sim ~delay:3.0 pong;
  Sim.schedule_frame sim ~delay:4.0 (frame 2);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "each event dispatched by its kind"
    [ "frame 1"; "ping"; "pong"; "frame 2" ] (List.rev !log)

let test_determinism () =
  let run () =
    let sim = Sim.create ~seed:99 () in
    let out = ref [] in
    for _ = 1 to 5 do
      out := Sim.exponential sim ~mean:10.0 :: !out
    done;
    !out
  in
  Alcotest.(check (list (float 1e-9))) "same seed, same draws" (run ()) (run ())

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let heap = Event_heap.create () in
      List.iter (fun t -> Event_heap.push heap ~time:t ()) times;
      let rec drain last =
        match Event_heap.pop heap with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential samples are positive and finite" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sim = Sim.create ~seed ()
      in
      let x = Sim.exponential sim ~mean:100.0 in
      x > 0.0 && Float.is_finite x)

let prop_normal_nonnegative =
  QCheck.Test.make ~name:"normal samples are truncated at zero" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sim = Sim.create ~seed () in
      Sim.normal sim ~mean:1.0 ~stddev:5.0 >= 0.0)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap breaks ties FIFO" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap interior removal sifts up" `Quick test_heap_remove_interior_sift_up;
    Alcotest.test_case "heap compact releases burst capacity" `Quick test_heap_compact_capacity;
    Alcotest.test_case "compact is burst-order independent" `Quick
      test_compact_burst_order_independent;
    Alcotest.test_case "heap releases payloads that leave" `Quick test_heap_releases_payloads;
    Alcotest.test_case "sim compact mid-run is transparent" `Quick test_sim_compact_mid_run;
    Alcotest.test_case "set_tick boundary is exclusive" `Quick test_set_tick_boundary;
    Alcotest.test_case "bounded run fires final ticks" `Quick test_run_until_fires_final_ticks;
    Alcotest.test_case "clock advances with events" `Quick test_clock_advances;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run with horizon" `Quick test_run_until_horizon;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "frames and timers share the queue" `Quick test_frames_and_timers;
    Alcotest.test_case "deterministic RNG" `Quick test_determinism;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_exponential_positive;
    QCheck_alcotest.to_alcotest prop_normal_nonnegative;
  ]
