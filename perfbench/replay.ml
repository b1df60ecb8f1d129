(* Replays of what an episode captured, through the default queue and
   the default wire codecs, so the queue's and the codec's share of a
   step can be priced on their own.  Both run after the episode, outside
   every timed step. *)

module Wire = P4update.Wire

let now () = Int64.to_int (Dessim.Wallclock.now_ns ())

let median3 f =
  let a = Array.init 3 (fun _ -> f ()) in
  Array.sort compare a;
  a.(1)

(* [queue ~seed ~pend ~pops n] replays the episode's event schedule
   through {!Dessim.Event_heap}, the default kernel's queue, and returns
   ns per operation (push or pop).  [pend.(i)] is the queue depth before
   step [i] and [pops.(i)] the time that step popped, so step [i] was
   preceded by [pend.(i) - pend.(i-1) + 1] pushes.  Which pending slot
   held which event is not observable through the public [Sim] API, so
   each pop is matched to a uniformly drawn slot among those pending at
   that step: the replay keeps the depth trajectory and the popped times
   exactly, and draws the push order. *)
let queue ~seed ~pend ~pops n =
  if n = 0 then 0.0
  else begin
    let pushes = Array.init n (fun i -> if i = 0 then pend.(0) else pend.(i) - pend.(i - 1) + 1) in
    let total = Array.fold_left ( + ) 0 pushes in
    let slot_time = Array.make total 0.0 in
    let live = Array.make total 0 in
    let live_n = ref 0 and next = ref 0 in
    let rng = Random.State.make [| seed |] in
    for i = 0 to n - 1 do
      for _ = 1 to pushes.(i) do
        live.(!live_n) <- !next;
        incr live_n;
        incr next
      done;
      let r = Random.State.int rng !live_n in
      slot_time.(live.(r)) <- pops.(i);
      decr live_n;
      live.(r) <- live.(!live_n)
    done;
    let once () =
      let heap = Dessim.Event_heap.create () in
      let k = ref 0 in
      let t0 = now () in
      for i = 0 to n - 1 do
        for _ = 1 to pushes.(i) do
          Dessim.Event_heap.push heap ~time:slot_time.(!k) ();
          incr k
        done;
        ignore (Sys.opaque_identity (Dessim.Event_heap.pop heap))
      done;
      float_of_int (now () - t0) /. float_of_int (total + n)
    in
    median3 once
  end

type decoded = Control of Wire.control | Data of Wire.data | Foreign

let decode b =
  match Wire.packet_of_bytes b with
  | None -> Foreign
  | Some p -> (
    match Wire.control_of_packet p with
    | Some c -> Control c
    | None -> ( match Wire.data_of_packet p with Some d -> Data d | None -> Foreign))

let encode = function
  | Control c -> ignore (Sys.opaque_identity (Wire.control_to_bytes c))
  | Data d -> ignore (Sys.opaque_identity (Wire.data_to_bytes d))
  | Foreign -> ()

(* [wire frames n] decodes the first [n] captured frames and re-encodes
   them through the default (boxed parse-graph) codecs.  Returns decode
   ns per frame, encode ns per frame and minor words per frame (both
   directions). *)
let wire frames n =
  if n = 0 then (0.0, 0.0, 0.0)
  else begin
    let per_frame ns = float_of_int ns /. float_of_int n in
    let decoded = Array.map decode (Array.sub frames 0 n) in
    let decode_ns =
      median3 (fun () ->
          let t0 = now () in
          for i = 0 to n - 1 do
            ignore (Sys.opaque_identity (decode frames.(i)))
          done;
          per_frame (now () - t0))
    in
    let encode_ns =
      median3 (fun () ->
          let t0 = now () in
          Array.iter encode decoded;
          per_frame (now () - t0))
    in
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      encode (decode frames.(i))
    done;
    (decode_ns, encode_ns, (Gc.minor_words () -. w0) /. float_of_int n)
  end
