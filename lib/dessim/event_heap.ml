(* Flat-array (structure-of-arrays) binary min-heap of timestamped events.

   The scale engine pushes and pops millions of events per run, so the
   heap stores its entry fields in parallel flat arrays instead of an
   array of boxed records.  Heap order moves three immediate arrays:

     times     float array   -- unboxed; every ordering comparison is a
                                direct load from a contiguous float array
     seqs      int array     -- FIFO tie-break for same-instant events
     slots     int array     -- index of the entry's payload in the slot
                                table

   The payloads themselves sit still in a slot table ([payloads], an
   [Obj.t array], untyped so that 'a never forces a float-array
   specialisation).  A payload is written once when it is pushed and
   reset once when it leaves; sifting only shifts ints.  Storing a
   pointer into an array that lives in the major heap costs a write
   barrier ([caml_modify]), and a young closure stored there also enters
   the remembered set, so moving the payloads themselves at every sift
   level paid that cost per level instead of once per event.

   [slots] is a permutation of the table's indices: positions [0, len)
   hold the live entries' slots in heap order, and positions
   [len, capacity) are the free-slot stack.  Push takes the free slot
   found at position [len]; pop, [remove_seq] and [clear] put the freed
   slot back at the position the heap just gave up.

   Sifting uses the hole technique: the moving entry is held in locals
   while blocking entries shift, so each level costs one 3-field move
   instead of a 3-read/3-write swap.  A push sifts up; a removal walks
   its hole down to a leaf and sifts the heap's last entry up from there
   (see [remove_at]).

   Ordering is (time, seq) with strict comparison — byte-identical
   delivery order to the original boxed heap, which is kept verbatim in
   the test suite as the oracle of a differential qcheck property. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : Obj.t array;
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
    slots = [||];
    payloads = [||];
    len = 0;
    next_seq = 0;
  }

(* Re-size every array to [capacity] (>= len).  The live entries keep
   their heap positions and are renumbered to slots [0, len), so the
   free-slot stack is the identity tail [len, capacity). *)
let resize heap capacity =
  let times = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let slots = Array.init capacity Fun.id in
  let payloads = Array.make capacity dummy in
  Array.blit heap.times 0 times 0 heap.len;
  Array.blit heap.seqs 0 seqs 0 heap.len;
  for i = 0 to heap.len - 1 do
    payloads.(i) <- heap.payloads.(heap.slots.(i))
  done;
  heap.times <- times;
  heap.seqs <- seqs;
  heap.slots <- slots;
  heap.payloads <- payloads

let grow heap = resize heap (max initial_capacity (2 * Array.length heap.times))

(* All indices below are < len <= capacity, with len checked by the
   callers, so the sift loops use unsafe accesses. *)

let[@inline] move heap ~src ~dst =
  Array.unsafe_set heap.times dst (Array.unsafe_get heap.times src);
  Array.unsafe_set heap.seqs dst (Array.unsafe_get heap.seqs src);
  Array.unsafe_set heap.slots dst (Array.unsafe_get heap.slots src)

let[@inline] place heap i ~time ~seq ~slot =
  Array.unsafe_set heap.times i time;
  Array.unsafe_set heap.seqs i seq;
  Array.unsafe_set heap.slots i slot

(* Sift the (held-in-locals) entry up from hole [i]: parents later in
   (time, seq) order shift down into the hole.  Inlined: as a call it
   boxes the time a removal reads from [times] for the displaced last
   entry, 2 minor words per such removal. *)
let[@inline] sift_up_entry heap i ~time ~seq ~slot =
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
  place heap !i ~time ~seq ~slot

let push heap ~time payload =
  let seq = heap.next_seq in
  heap.next_seq <- seq + 1;
  if heap.len = Array.length heap.times then grow heap;
  let i = heap.len in
  heap.len <- i + 1;
  let slot = Array.unsafe_get heap.slots i in
  Array.unsafe_set heap.payloads slot (Obj.repr payload);
  sift_up_entry heap i ~time ~seq ~slot

(* Remove the entry at heap position [i], bottom-up: the hole walks
   from [i] down to a leaf, the earlier child shifting up at each level,
   then the displaced last entry drops into the leaf hole and sifts up —
   above [i] too when an interior [remove_seq] took an early entry.  On
   continuous times which child is earlier is a coin flip, so the child
   index is computed from the comparison instead of branched on (seqs
   are read only on an exact time tie); the last entry, usually a late
   one, then rises only a level or two.  The heap left is the one a
   top-down sift-down would leave.  The freed slot goes back on the
   free-slot stack at the position the heap gave up.  Returns the
   payload; the table no longer references it. *)
let remove_at heap i =
  let slot = Array.unsafe_get heap.slots i in
  let payload : 'a = Obj.obj (Array.unsafe_get heap.payloads slot) in
  Array.unsafe_set heap.payloads slot dummy;
  let last = heap.len - 1 in
  heap.len <- last;
  if i < last then begin
    let times = heap.times and seqs = heap.seqs in
    let hole = ref i in
    let left = ref ((2 * i) + 1) in
    (* children live in [0, last): position [last] is the displaced entry *)
    while !left < last do
      let l = !left in
      let child =
        if l + 1 = last then l
        else
          let lt = Array.unsafe_get times l and rt = Array.unsafe_get times (l + 1) in
          if rt = lt then
            if Array.unsafe_get seqs (l + 1) < Array.unsafe_get seqs l then l + 1 else l
          else l + Bool.to_int (rt < lt)
      in
      move heap ~src:child ~dst:!hole;
      hole := child;
      left := (2 * child) + 1
    done;
    sift_up_entry heap !hole ~time:(Array.unsafe_get times last)
      ~seq:(Array.unsafe_get seqs last) ~slot:(Array.unsafe_get heap.slots last)
  end;
  Array.unsafe_set heap.slots last slot;
  payload

let min_time heap =
  if heap.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  Array.unsafe_get heap.times 0

let take_min heap =
  if heap.len = 0 then invalid_arg "Event_heap.take_min: empty heap";
  remove_at heap 0

let pop heap =
  if heap.len = 0 then None
  else
    let time = Array.unsafe_get heap.times 0 in
    Some (time, remove_at heap 0)

let size heap = heap.len
let is_empty heap = heap.len = 0

let clear heap =
  for i = 0 to heap.len - 1 do
    heap.payloads.(heap.slots.(i)) <- dummy
  done;
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
  if target < Array.length heap.times then resize heap target

let fold heap ~init ~f =
  let acc = ref init in
  for i = 0 to heap.len - 1 do
    acc :=
      f !acc ~time:heap.times.(i) ~seq:heap.seqs.(i)
        ~payload:(Obj.obj heap.payloads.(heap.slots.(i)))
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
    Some (time, remove_at heap i)
  end
