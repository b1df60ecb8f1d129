(* Calendar queue (Brown 1988) over timestamped events.

   The flat binary heap ([Event_heap]) costs O(log n) per operation; a
   calendar queue makes enqueue/dequeue O(1) amortized when event times
   arrive roughly uniformly — which is exactly what the scale engine's
   Poisson bursts produce.  Time is divided into buckets of [width]
   simulated ms arranged in a circular array (a "year" is
   [nbuckets * width]); an event lands in the bucket of its epoch
   [floor(time / width)] modulo the array size, and dequeue scans the
   cursor bucket for the earliest eligible entry.

   Layout mirrors [Event_heap]: per-bucket parallel flat arrays (times /
   seqs / untyped payloads), tags in a side table keyed by seq, and
   (time, seq) strict ordering so delivery order is byte-identical to
   the heap — enforced by the differential qcheck oracle against
   [Event_heap_ref] in [test/test_scale.ml].

   Bucket-width auto-tuning: when occupancy exceeds two entries per
   bucket the bucket count doubles and the width is re-derived from the
   observed time span, targeting ~2 entries per bucket.  The tuning is a
   pure function of the queue's content, so runs stay deterministic.

   Heap fallback: distributions a calendar fundamentally cannot spread —
   every event at one instant, or a huge pending set concentrated in one
   bucket after a re-tune — would degrade dequeue to O(n).  When a
   re-tune detects such a shape the queue migrates its entries (with
   their already-issued seqs, via [Event_heap.push_seq]) into a private
   [Event_heap] and delegates from then on.  The switch is
   content-determined and order-preserving, so it is invisible except in
   cost. *)

type tag = Event_heap.tag = {
  tag_kind : string;
  tag_node : int;
  tag_flow : int;
  tag_hash : int;
}

(* Freed payload slots are reset to this immediate so a bucket never
   retains a popped thunk. *)
let dummy = Obj.repr 0

(* One bucket: an unordered growable vector in SoA layout.  [be] holds
   each entry's epoch exactly as computed at placement time, so the
   cursor's eligibility test is a load + compare that can never disagree
   with the bucket the entry landed in (see [epoch_of]). *)
type bucket = {
  mutable bt : float array;
  mutable be : float array;
  mutable bs : int array;
  mutable bp : Obj.t array;
  mutable blen : int;
}

let new_bucket () = { bt = [||]; be = [||]; bs = [||]; bp = [||]; blen = 0 }

type 'a t = {
  mutable buckets : bucket array;  (* length is a power of two *)
  mutable mask : int;              (* Array.length buckets - 1 *)
  mutable width : float;           (* bucket width in simulated ms *)
  mutable cur : int;               (* cursor: bucket being drained *)
  mutable cur_epoch : float;       (* epoch of [cur]'s current year pass *)
  mutable len : int;
  mutable next_seq : int;
  tag_table : (int, tag) Hashtbl.t;
  (* Set once by a re-tune that detects a pathological distribution;
     every operation delegates afterwards. *)
  mutable fallback : 'a Event_heap.t option;
}

let initial_buckets = 16
let initial_width = 1.0

(* Beyond this many buckets the calendar stops paying for itself
   (cache-resident bucket array) and a concentrated distribution is
   driving growth; hand over to the heap instead. *)
let max_buckets = 65536

let create () =
  {
    buckets = Array.init initial_buckets (fun _ -> new_bucket ());
    mask = initial_buckets - 1;
    width = initial_width;
    cur = 0;
    cur_epoch = 0.0;
    len = 0;
    next_seq = 0;
    tag_table = Hashtbl.create 8;
    fallback = None;
  }

let[@inline] tag_of q seq =
  if Hashtbl.length q.tag_table = 0 then None
  else Hashtbl.find_opt q.tag_table seq

(* ---- bucket vector ---------------------------------------------------- *)

let bucket_grow b =
  let capacity = Array.length b.bt in
  let new_capacity = max 4 (2 * capacity) in
  let bt = Array.make new_capacity 0.0 in
  let be = Array.make new_capacity 0.0 in
  let bs = Array.make new_capacity 0 in
  let bp = Array.make new_capacity dummy in
  Array.blit b.bt 0 bt 0 b.blen;
  Array.blit b.be 0 be 0 b.blen;
  Array.blit b.bs 0 bs 0 b.blen;
  Array.blit b.bp 0 bp 0 b.blen;
  b.bt <- bt;
  b.be <- be;
  b.bs <- bs;
  b.bp <- bp

let[@inline] bucket_add b ~time ~epoch ~seq ~payload =
  if b.blen = Array.length b.bt then bucket_grow b;
  let i = b.blen in
  Array.unsafe_set b.bt i time;
  Array.unsafe_set b.be i epoch;
  Array.unsafe_set b.bs i seq;
  Array.unsafe_set b.bp i payload;
  b.blen <- i + 1

(* Order within a bucket is immaterial, so removal is swap-with-last. *)
let[@inline] bucket_remove b i =
  let last = b.blen - 1 in
  if i < last then begin
    Array.unsafe_set b.bt i (Array.unsafe_get b.bt last);
    Array.unsafe_set b.be i (Array.unsafe_get b.be last);
    Array.unsafe_set b.bs i (Array.unsafe_get b.bs last);
    Array.unsafe_set b.bp i (Array.unsafe_get b.bp last)
  end;
  Array.unsafe_set b.bp last dummy;
  b.blen <- last

(* ---- cursor ----------------------------------------------------------- *)

(* Epoch (bucket-grid index) of a timestamp, computed in float so huge
   timestamps cannot overflow the int conversion path.  Everything that
   compares an entry against the cursor — placement, eligibility, the
   push-side backward reset — goes through this one function: the
   quotient's rounding is inexact, and any second, differently-rounded
   computation of the same boundary (e.g. an upper bound formed as
   [(epoch + 1) * width]) can disagree with placement and strand a
   boundary-straddling entry in a bucket the scan deems empty for this
   pass. *)
let[@inline] epoch_of q time = Float.floor (time /. q.width)

(* Point the cursor at [time]'s bucket. *)
let[@inline] reset_cursor q time =
  let epoch = epoch_of q time in
  q.cur <- int_of_float epoch land q.mask;
  q.cur_epoch <- epoch


(* ---- re-tune / fallback ----------------------------------------------- *)

let iter_entries q f =
  Array.iter
    (fun b ->
      for i = 0 to b.blen - 1 do
        f ~time:b.bt.(i) ~seq:b.bs.(i) ~payload:b.bp.(i)
      done)
    q.buckets

let migrate_to_heap q =
  let h = Event_heap.create () in
  iter_entries q (fun ~time ~seq ~payload ->
      Event_heap.push_seq ?tag:(tag_of q seq) h ~time ~seq (Obj.obj payload));
  Event_heap.reserve_seqs h ~below:q.next_seq;
  Hashtbl.reset q.tag_table;
  q.buckets <- [||];
  q.mask <- 0;
  q.fallback <- Some h

(* Rebuild with [nbuckets] buckets and a width derived from the observed
   span, cursor repointed at the earliest entry.  Detects the two
   pathological shapes and migrates instead: a zero-span pending set
   (same-instant storm) and a rebuild that still concentrates most
   entries in one bucket (heavily clustered times). *)
let rebuild q nbuckets =
  if nbuckets > max_buckets then migrate_to_heap q
  else begin
    let min_t = ref infinity and max_t = ref neg_infinity in
    iter_entries q (fun ~time ~seq:_ ~payload:_ ->
        if time < !min_t then min_t := time;
        if time > !max_t then max_t := time);
    if q.len > 1 && !max_t <= !min_t then migrate_to_heap q
    else begin
      let width =
        if q.len <= 1 then q.width
        else Float.max ((!max_t -. !min_t) *. 2.0 /. float_of_int q.len) 1e-9
      in
      let old = q.buckets in
      q.buckets <- Array.init nbuckets (fun _ -> new_bucket ());
      q.mask <- nbuckets - 1;
      q.width <- width;
      let max_occ = ref 0 in
      Array.iter
        (fun b ->
          for i = 0 to b.blen - 1 do
            (* Epochs are re-derived under the new width. *)
            let epoch = epoch_of q b.bt.(i) in
            let nb = q.buckets.(int_of_float epoch land q.mask) in
            bucket_add nb ~time:b.bt.(i) ~epoch ~seq:b.bs.(i) ~payload:b.bp.(i);
            if nb.blen > !max_occ then max_occ := nb.blen
          done)
        old;
      if q.len > 0 then reset_cursor q !min_t;
      if q.len > 256 && !max_occ * 2 > q.len then migrate_to_heap q
    end
  end

(* ---- the queue -------------------------------------------------------- *)

let push ?tag q ~time payload =
  match q.fallback with
  | Some h -> Event_heap.push ?tag h ~time payload
  | None ->
    let seq = q.next_seq in
    q.next_seq <- seq + 1;
    (match tag with None -> () | Some t -> Hashtbl.replace q.tag_table seq t);
    let epoch = epoch_of q time in
    bucket_add
      q.buckets.(int_of_float epoch land q.mask)
      ~time ~epoch ~seq ~payload:(Obj.repr payload);
    q.len <- q.len + 1;
    (* An empty queue's cursor is stale; an arrival earlier than the
       cursor bucket's year pass would otherwise wait a whole year. *)
    if q.len = 1 || epoch < q.cur_epoch then begin
      q.cur <- int_of_float epoch land q.mask;
      q.cur_epoch <- epoch
    end;
    if q.len > 2 * (q.mask + 1) then rebuild q (2 * (q.mask + 1))

(* Locate the next entry in (time, seq) order and return its (bucket,
   slot), advancing the cursor as a side effect.  Every pending entry
   has [epoch >= cur_epoch] (pushes reset the cursor backwards when
   needed), so entries eligible now — [epoch = cur_epoch] — all live in
   the cursor bucket; if a whole year of buckets turns up empty the
   pending set is sparse and the cursor jumps straight to the global
   minimum. *)
let find_next q =
  if q.len = 0 then None
  else begin
    let result = ref (-1) in
    let scanned = ref 0 in
    let nbuckets = q.mask + 1 in
    while !result < 0 && !scanned < nbuckets do
      let b = q.buckets.(q.cur) in
      let best = ref (-1) in
      let best_t = ref 0.0 and best_s = ref 0 in
      for i = 0 to b.blen - 1 do
        let ti = Array.unsafe_get b.bt i in
        if Array.unsafe_get b.be i <= q.cur_epoch then
          if
            !best < 0 || ti < !best_t
            || (ti = !best_t && Array.unsafe_get b.bs i < !best_s)
          then begin
            best := i;
            best_t := ti;
            best_s := Array.unsafe_get b.bs i
          end
      done;
      if !best >= 0 then result := !best
      else begin
        q.cur <- (q.cur + 1) land q.mask;
        q.cur_epoch <- q.cur_epoch +. 1.0;
        incr scanned
      end
    done;
    if !result >= 0 then Some (q.cur, !result)
    else begin
      (* Empty year: direct min scan, then repoint the cursor there. *)
      let bb = ref (-1) and bi = ref (-1) in
      let bt = ref infinity and bs = ref max_int in
      Array.iteri
        (fun bidx b ->
          for i = 0 to b.blen - 1 do
            let ti = b.bt.(i) in
            if ti < !bt || (ti = !bt && b.bs.(i) < !bs) then begin
              bb := bidx;
              bi := i;
              bt := ti;
              bs := b.bs.(i)
            end
          done)
        q.buckets;
      reset_cursor q !bt;
      Some (!bb, !bi)
    end
  end

let pop q =
  match q.fallback with
  | Some h -> Event_heap.pop h
  | None -> (
    match find_next q with
    | None -> None
    | Some (bidx, i) ->
      let b = q.buckets.(bidx) in
      let time = b.bt.(i) in
      let seq = b.bs.(i) in
      let payload : 'a = Obj.obj b.bp.(i) in
      bucket_remove b i;
      q.len <- q.len - 1;
      if Hashtbl.length q.tag_table <> 0 then Hashtbl.remove q.tag_table seq;
      Some (time, payload))

let peek_time q =
  match q.fallback with
  | Some h -> Event_heap.peek_time h
  | None -> (
    match find_next q with
    | None -> None
    | Some (bidx, i) -> Some q.buckets.(bidx).bt.(i))

let size q = match q.fallback with Some h -> Event_heap.size h | None -> q.len
let is_empty q = size q = 0

let clear q =
  match q.fallback with
  | Some h -> Event_heap.clear h
  | None ->
    Array.iter
      (fun b ->
        Array.fill b.bp 0 b.blen dummy;
        b.blen <- 0)
      q.buckets;
    Hashtbl.reset q.tag_table;
    q.len <- 0

let fold q ~init ~f =
  match q.fallback with
  | Some h -> Event_heap.fold h ~init ~f
  | None ->
    let acc = ref init in
    iter_entries q (fun ~time ~seq ~payload:_ ->
        acc := f !acc ~time ~seq ~tag:(tag_of q seq));
    !acc

let remove_seq q seq =
  match q.fallback with
  | Some h -> Event_heap.remove_seq h seq
  | None ->
    let found = ref None in
    let nbuckets = q.mask + 1 in
    let bidx = ref 0 in
    while !found = None && !bidx < nbuckets do
      let b = q.buckets.(!bidx) in
      let i = ref 0 in
      while !found = None && !i < b.blen do
        if b.bs.(!i) = seq then found := Some (b, !i) else incr i
      done;
      incr bidx
    done;
    (match !found with
     | None -> None
     | Some (b, i) ->
       let time = b.bt.(i) in
       let tag = tag_of q seq in
       let payload : 'a = Obj.obj b.bp.(i) in
       bucket_remove b i;
       q.len <- q.len - 1;
       if Hashtbl.length q.tag_table <> 0 then Hashtbl.remove q.tag_table seq;
       Some (time, tag, payload))

(* Shrink to fit: rebuild with the smallest power-of-two bucket count
   targeting ~2 entries per bucket, re-deriving the width from the
   surviving entries — the down-sizing counterpart of the push-side
   re-tune, run at quiesce points (never automatically, so a draining
   queue is not rebuilt over and over). *)
let compact q =
  match q.fallback with
  | Some h -> Event_heap.compact h
  | None ->
    let target =
      let c = ref initial_buckets in
      while 2 * !c < q.len do c := 2 * !c done;
      !c
    in
    rebuild q target

let fallback_active q = q.fallback <> None
