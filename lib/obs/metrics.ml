(* Named metrics registry: counters, gauges, and log-scale histograms.

   A registry is a flat name -> instrument table.  Lookup by name is
   idempotent ([counter r "x"] twice returns the same instrument), and hot
   paths are expected to hoist the instrument out of the loop — incrementing
   a counter handle is a single field mutation.

   Histograms use power-of-two buckets and additionally retain raw samples
   so Harness.Stats can compute exact percentiles on snapshot; the retained
   list is capped to keep long chaos runs bounded. *)

type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (** bucket i counts samples in [2^(i-1), 2^i) *)
  mutable h_samples : float list;  (** newest first, capped *)
  mutable h_retained : int;
}

let histogram_buckets = 64
let histogram_sample_cap = 100_000

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.table name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    Hashtbl.replace t.table name (Gauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some _ ->
    invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)
  | None ->
    let h =
      {
        h_name = name;
        h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
        h_buckets = Array.make histogram_buckets 0;
        h_samples = [];
        h_retained = 0;
      }
    in
    Hashtbl.replace t.table name (Histogram h);
    h

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let count c = c.c_value
let set g v = g.g_value <- v
let value g = g.g_value

let bucket_of v =
  if v < 1.0 then 0
  else
    let rec go i x = if x < 2.0 || i = histogram_buckets - 1 then i else go (i + 1) (x /. 2.0) in
    go 1 v

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  if h.h_retained < histogram_sample_cap then begin
    h.h_samples <- v :: h.h_samples;
    h.h_retained <- h.h_retained + 1
  end

let samples h = List.rev h.h_samples
let hcount h = h.h_count

(* Estimated percentile from the log2 buckets (linear interpolation
   inside the target bucket).  Validation and interpolation live in
   {!Quantile}, the same implementation backing [Harness.Stats], so both
   reject the same p-ranges with the same semantics. *)
let percentile_opt h p =
  Quantile.of_buckets_opt ~who:"Metrics.percentile" p ~count:h.h_count
    ~buckets:h.h_buckets

let percentile h p =
  match percentile_opt h p with
  | Some v -> v
  | None -> invalid_arg "Metrics.percentile: empty histogram"

(* Lower edge of bucket [i]: 0 for bucket 0, else 2^(i-1). *)
let bucket_floor i = if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1))

let get t name = Hashtbl.find_opt t.table name

let get_count t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c.c_value
  | _ -> 0

let reset t =
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Histogram h ->
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- infinity;
        h.h_max <- neg_infinity;
        Array.fill h.h_buckets 0 histogram_buckets 0;
        h.h_samples <- [];
        h.h_retained <- 0)
    t.table
