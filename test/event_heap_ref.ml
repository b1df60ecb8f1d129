(* Reference event heap: the original boxed-entry binary heap, kept
   verbatim as the behavioural oracle for the flat-array [Event_heap]
   that replaced it on the hot path.  The differential property tests in
   [test_scale.ml] drive both implementations through identical operation
   sequences and require identical observable behaviour. *)
type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () = { data = [||]; len = 0; next_seq = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow heap entry =
  let capacity = Array.length heap.data in
  if heap.len = capacity then begin
    let new_capacity = max initial_capacity (2 * capacity) in
    let data = Array.make new_capacity entry in
    Array.blit heap.data 0 data 0 heap.len;
    heap.data <- data
  end

let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before data.(i) data.(parent) then begin
      let tmp = data.(parent) in
      data.(parent) <- data.(i);
      data.(i) <- tmp;
      sift_up data parent
    end
  end

let rec sift_down data len i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < len && before data.(left) data.(i) then left else i in
  let smallest =
    if right < len && before data.(right) data.(smallest) then right
    else smallest
  in
  if smallest <> i then begin
    let tmp = data.(smallest) in
    data.(smallest) <- data.(i);
    data.(i) <- tmp;
    sift_down data len smallest
  end

let push heap ~time payload =
  let entry = { time; seq = heap.next_seq; payload } in
  heap.next_seq <- heap.next_seq + 1;
  grow heap entry;
  heap.data.(heap.len) <- entry;
  heap.len <- heap.len + 1;
  sift_up heap.data (heap.len - 1)

let pop heap =
  if heap.len = 0 then None
  else begin
    let root = heap.data.(0) in
    heap.len <- heap.len - 1;
    if heap.len > 0 then begin
      heap.data.(0) <- heap.data.(heap.len);
      sift_down heap.data heap.len 0
    end;
    Some (root.time, root.payload)
  end

let peek_time heap = if heap.len = 0 then None else Some heap.data.(0).time
let size heap = heap.len
let is_empty heap = heap.len = 0
let clear heap = heap.len <- 0

let fold heap ~init ~f =
  let acc = ref init in
  for i = 0 to heap.len - 1 do
    let e = heap.data.(i) in
    acc := f !acc ~time:e.time ~seq:e.seq ~payload:e.payload
  done;
  !acc

(* Heap-internal index of the entry holding [seq], or -1. *)
let index_of_seq heap seq =
  let rec find i = if i >= heap.len then -1 else if heap.data.(i).seq = seq then i else find (i + 1) in
  find 0

let remove_seq heap seq =
  let i = index_of_seq heap seq in
  if i < 0 then None
  else begin
    let victim = heap.data.(i) in
    heap.len <- heap.len - 1;
    if i < heap.len then begin
      heap.data.(i) <- heap.data.(heap.len);
      (* The moved entry may need to travel either way. *)
      sift_down heap.data heap.len i;
      sift_up heap.data i
    end;
    Some (victim.time, victim.payload)
  end
