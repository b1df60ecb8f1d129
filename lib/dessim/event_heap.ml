(* Flat-array (structure-of-arrays) binary min-heap of timestamped events.

   The scale engine pushes and pops millions of events per run, so the
   heap stores its entry fields in parallel flat arrays instead of an
   array of boxed records:

     times     float array   -- unboxed; every ordering comparison is a
                                direct load from a contiguous float array
     seqs      int array     -- FIFO tie-break for same-instant events
     payloads  Obj.t array   -- the scheduled thunks, untyped so that 'a
                                never forces a float-array specialisation

   (Tags live in a side table — see [tag_table] below.)

   Steady-state push/pop allocates nothing (the boxed version allocated
   one 5-field record per push), and sifting uses the hole technique:
   the moving entry is held in locals while blocking entries shift, so
   each level costs one 3-field move instead of a 3-read/3-write swap.

   Ordering is (time, seq) with strict comparison — byte-identical
   delivery order to the original boxed heap, which is kept verbatim as
   [Event_heap_ref] and enforced as the oracle by a differential qcheck
   property in [test/test_dessim.ml]. *)

(* A delivery tag carried by schedulable events.  Tags are metadata only:
   they never influence the default heap order.  The model checker
   ([lib/mc]) uses them to identify commuting deliveries — kind of wire
   event, receiving node, flow id, and a digest of the payload bytes. *)
type tag = { tag_kind : string; tag_node : int; tag_flow : int; tag_hash : int }

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  (* Tags ride in a side table keyed by seq: they are only ever attached
     while the model checker's chooser is installed, so the default path
     never touches the table and sifting moves three arrays, not four. *)
  tag_table : (int, tag) Hashtbl.t;
  mutable len : int;
  mutable next_seq : int;
}

let initial_capacity = 64

(* Freed payload slots are reset to this immediate so the heap never
   retains a popped thunk (closures capture whole simulation worlds). *)
let dummy = Obj.repr 0

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    tag_table = Hashtbl.create 8;
    len = 0;
    next_seq = 0;
  }

let[@inline] tag_of heap seq =
  if Hashtbl.length heap.tag_table = 0 then None
  else Hashtbl.find_opt heap.tag_table seq

let grow heap =
  let capacity = Array.length heap.times in
  let new_capacity = max initial_capacity (2 * capacity) in
  let times = Array.make new_capacity 0.0 in
  let seqs = Array.make new_capacity 0 in
  let payloads = Array.make new_capacity dummy in
  Array.blit heap.times 0 times 0 heap.len;
  Array.blit heap.seqs 0 seqs 0 heap.len;
  Array.blit heap.payloads 0 payloads 0 heap.len;
  heap.times <- times;
  heap.seqs <- seqs;
  heap.payloads <- payloads

(* All indices below are < len <= capacity, with len checked by the
   callers, so the sift loops use unsafe accesses. *)

let[@inline] move heap ~src ~dst =
  Array.unsafe_set heap.times dst (Array.unsafe_get heap.times src);
  Array.unsafe_set heap.seqs dst (Array.unsafe_get heap.seqs src);
  Array.unsafe_set heap.payloads dst (Array.unsafe_get heap.payloads src)

let[@inline] place heap i ~time ~seq ~payload =
  Array.unsafe_set heap.times i time;
  Array.unsafe_set heap.seqs i seq;
  Array.unsafe_set heap.payloads i payload

(* Sift the (held-in-locals) entry up from hole [i]: parents later in
   (time, seq) order shift down into the hole. *)
let sift_up_entry heap i ~time ~seq ~payload =
  let i = ref i in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get heap.times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get heap.seqs parent) then begin
      move heap ~src:parent ~dst:!i;
      i := parent
    end
    else stop := true
  done;
  place heap !i ~time ~seq ~payload

(* Sift the entry down from hole [i]: the earlier child shifts up while
   it precedes the held entry. *)
let sift_down_entry heap i ~time ~seq ~payload =
  let len = heap.len in
  let i = ref i in
  let stop = ref false in
  while not !stop do
    let left = (2 * !i) + 1 in
    if left >= len then stop := true
    else begin
      let right = left + 1 in
      let lt = Array.unsafe_get heap.times left in
      (* Seqs are only consulted on exact time ties, so load them lazily:
         on the random-time fast path each level costs two float loads. *)
      let child, ct =
        if right < len then begin
          let rt = Array.unsafe_get heap.times right in
          if rt < lt then (right, rt)
          else if
            rt = lt && Array.unsafe_get heap.seqs right < Array.unsafe_get heap.seqs left
          then (right, rt)
          else (left, lt)
        end
        else (left, lt)
      in
      if ct < time || (ct = time && Array.unsafe_get heap.seqs child < seq) then begin
        move heap ~src:child ~dst:!i;
        i := child
      end
      else stop := true
    end
  done;
  place heap !i ~time ~seq ~payload

let push ?tag heap ~time payload =
  let seq = heap.next_seq in
  heap.next_seq <- seq + 1;
  (match tag with None -> () | Some t -> Hashtbl.replace heap.tag_table seq t);
  if heap.len = Array.length heap.times then grow heap;
  let i = heap.len in
  heap.len <- i + 1;
  sift_up_entry heap i ~time ~seq ~payload:(Obj.repr payload)

let pop heap =
  if heap.len = 0 then None
  else begin
    let time = Array.unsafe_get heap.times 0 in
    let seq = Array.unsafe_get heap.seqs 0 in
    let payload : 'a = Obj.obj (Array.unsafe_get heap.payloads 0) in
    let last = heap.len - 1 in
    heap.len <- last;
    if last > 0 then
      sift_down_entry heap 0
        ~time:(Array.unsafe_get heap.times last)
        ~seq:(Array.unsafe_get heap.seqs last)
        ~payload:(Array.unsafe_get heap.payloads last);
    Array.unsafe_set heap.payloads last dummy;
    if Hashtbl.length heap.tag_table <> 0 then Hashtbl.remove heap.tag_table seq;
    Some (time, payload)
  end

let peek_time heap = if heap.len = 0 then None else Some heap.times.(0)
let size heap = heap.len
let is_empty heap = heap.len = 0

let clear heap =
  Array.fill heap.payloads 0 heap.len dummy;
  Hashtbl.reset heap.tag_table;
  heap.len <- 0

let capacity heap = Array.length heap.times

(* [clear] (and steady-state pops) never shrink the backing arrays, so a
   burst that grew the heap to hold 100k pending events keeps the 100k
   slots live for the rest of the process.  [compact] releases the
   excess: the arrays are re-sized to the smallest power-of-two capacity
   (>= [initial_capacity]) that holds the current entries, preserving
   heap order (a straight prefix copy).  Callers with a cycle structure
   (the soak monitor) invoke it at quiesce points so a burst early in
   the run cannot inflate later footprint readings. *)
let compact heap =
  let target =
    let c = ref initial_capacity in
    while !c < heap.len do c := 2 * !c done;
    !c
  in
  if target < Array.length heap.times then begin
    let times = Array.make target 0.0 in
    let seqs = Array.make target 0 in
    let payloads = Array.make target dummy in
    Array.blit heap.times 0 times 0 heap.len;
    Array.blit heap.seqs 0 seqs 0 heap.len;
    Array.blit heap.payloads 0 payloads 0 heap.len;
    heap.times <- times;
    heap.seqs <- seqs;
    heap.payloads <- payloads
  end

let fold heap ~init ~f =
  let acc = ref init in
  for i = 0 to heap.len - 1 do
    let seq = heap.seqs.(i) in
    acc := f !acc ~time:heap.times.(i) ~seq ~tag:(tag_of heap seq)
  done;
  !acc

(* Heap-internal index of the entry holding [seq], or -1.  A linear scan
   of the flat int array — only the model checker's choice-point layer
   calls this, never the default path. *)
let index_of_seq heap seq =
  let rec find i =
    if i >= heap.len then -1 else if heap.seqs.(i) = seq then i else find (i + 1)
  in
  find 0

let remove_seq heap seq =
  let i = index_of_seq heap seq in
  if i < 0 then None
  else begin
    let time = heap.times.(i) in
    let tag = tag_of heap seq in
    let payload : 'a = Obj.obj heap.payloads.(i) in
    let last = heap.len - 1 in
    heap.len <- last;
    if i < last then begin
      (* The entry moved in from the end may need to travel either way.
         The heap property makes the two directions exclusive (the old
         parent preceded everything in the removed entry's subtree), so
         pick the direction by one comparison against the parent. *)
      let mt = heap.times.(last) in
      let ms = heap.seqs.(last) in
      let mp = heap.payloads.(last) in
      let goes_up =
        i > 0
        &&
        let parent = (i - 1) / 2 in
        let pt = heap.times.(parent) in
        mt < pt || (mt = pt && ms < heap.seqs.(parent))
      in
      if goes_up then sift_up_entry heap i ~time:mt ~seq:ms ~payload:mp
      else sift_down_entry heap i ~time:mt ~seq:ms ~payload:mp
    end;
    heap.payloads.(last) <- dummy;
    if Hashtbl.length heap.tag_table <> 0 then Hashtbl.remove heap.tag_table seq;
    Some (time, tag, payload)
  end
