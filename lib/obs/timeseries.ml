(* Rolling SLO time-series over simulated time.

   Long-horizon harnesses (Soak, Scale) used to report one end-of-run
   summary: a latency spike in cycle 3 that recovered by cycle 8 was
   invisible.  A [Timeseries.t] samples a set of registered probes on a
   fixed simulated-time tick (driven by {!Dessim.Sim}'s tick hook) and
   keeps one window per tick, giving per-window trend lines that are
   exported as JSONL and rendered as a `top`-style text dashboard.

   Probe flavours:
   - {!gauge}: sampled instantaneously at each tick (in-flight updates,
     event-heap footprint);
   - {!rate}: reads a cumulative counter and emits the per-second delta
     over the window (pkts/s, aborts/s);
   - {!dist}: collects samples pushed via {!observe} and emits windowed
     p50/p99/count, then resets (update completion latency).

   Determinism: sampling never consumes simulator randomness and never
   schedules events; windows are a pure function of the seed and the
   tick. *)

type probe_kind =
  | Gauge of (unit -> float)
  | Rate of { read : unit -> float; mutable last : float }
  | Dist of { mutable samples : float list }

type probe = { p_name : string; p_unit : string; p_kind : probe_kind }

type window = {
  w_t_ms : float;  (* window end, simulated ms *)
  w_values : (string * float) list;  (* probe output order *)
}

type t = {
  ts_tick_ms : float;
  mutable ts_probes : probe list;  (* reverse registration order *)
  mutable ts_windows : window list;  (* newest first *)
}

let create ~tick_ms =
  if not (Float.is_finite tick_ms) || tick_ms <= 0.0 then
    invalid_arg "Timeseries.create: tick_ms must be positive";
  { ts_tick_ms = tick_ms; ts_probes = []; ts_windows = [] }

let add t p =
  if List.exists (fun q -> q.p_name = p.p_name) t.ts_probes then
    invalid_arg ("Timeseries: duplicate probe " ^ p.p_name);
  t.ts_probes <- p :: t.ts_probes

let gauge t name ~unit_ read = add t { p_name = name; p_unit = unit_; p_kind = Gauge read }

let rate t name ~unit_ read =
  add t { p_name = name; p_unit = unit_; p_kind = Rate { read; last = read () } }

let dist t name ~unit_ = add t { p_name = name; p_unit = unit_; p_kind = Dist { samples = [] } }

(* Push one sample into a [dist] probe; no-op for unknown names so call
   sites do not need to know which probes a harness registered. *)
let observe t name v =
  match List.find_opt (fun p -> p.p_name = name) t.ts_probes with
  | Some { p_kind = Dist d; _ } -> d.samples <- v :: d.samples
  | Some _ | None -> ()

(* Close the current window at simulated time [now]: sample every probe,
   reset the windowed state. *)
let tick t ~now =
  let dt_s = t.ts_tick_ms /. 1000.0 in
  let values =
    List.concat_map
      (fun p ->
        match p.p_kind with
        | Gauge read -> [ (p.p_name, read ()) ]
        | Rate r ->
          let cur = r.read () in
          let delta = cur -. r.last in
          r.last <- cur;
          [ (p.p_name, delta /. dt_s) ]
        | Dist d ->
          let samples = d.samples in
          d.samples <- [];
          let q p_ =
            Option.value ~default:0.0
              (Quantile.of_list_opt ~who:"Timeseries.tick" p_ samples)
          in
          [
            (p.p_name ^ ".p50", q 50.0);
            (p.p_name ^ ".p99", q 99.0);
            (p.p_name ^ ".n", float_of_int (List.length samples));
          ])
      (List.rev t.ts_probes)
  in
  t.ts_windows <- { w_t_ms = now; w_values = values } :: t.ts_windows

let windows t = List.rev t.ts_windows

(* Column labels, in window-value order (dist probes expand to three). *)
let labels t =
  List.concat_map
    (fun p ->
      match p.p_kind with
      | Gauge _ | Rate _ -> [ (p.p_name, p.p_unit) ]
      | Dist _ ->
        [ (p.p_name ^ ".p50", p.p_unit); (p.p_name ^ ".p99", p.p_unit);
          (p.p_name ^ ".n", "samples") ])
    (List.rev t.ts_probes)

(* --- exporters ------------------------------------------------------ *)

(* One JSON object per window, flat: {"t_ms": ..., "<probe>": value, ...} *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun w ->
      let obj =
        Json.Obj
          (("t_ms", Json.Float w.w_t_ms)
           :: List.map (fun (k, v) -> (k, Json.Float v)) w.w_values)
      in
      Buffer.add_string buf (Json.to_string obj);
      Buffer.add_char buf '\n')
    (windows t);
  Buffer.contents buf

(* --- the `top` dashboard -------------------------------------------- *)

let spark_chars = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let sparkline values =
  match values with
  | [] -> ""
  | vs ->
    let lo = List.fold_left Float.min infinity vs in
    let hi = List.fold_left Float.max neg_infinity vs in
    let span = if hi > lo then hi -. lo else 1.0 in
    String.concat ""
      (List.map
         (fun v ->
           let i =
             int_of_float ((v -. lo) /. span *. float_of_int (Array.length spark_chars - 1))
           in
           String.make 1 spark_chars.(max 0 (min (Array.length spark_chars - 1) i)))
         vs)

(* Trend lines from a bare window list (e.g. the series a harness result
   retains): one "<name> <latest> |sparkline|" line per metric, over the
   last [trail] windows.  Works without the [t] the windows came from, so
   report printers can run on results alone. *)
let trend_lines ?(trail = 64) ws =
  match ws with
  | [] -> []
  | first :: _ ->
    let names = List.map fst first.w_values in
    let tail =
      let n = List.length ws in
      List.filteri (fun i _ -> i >= n - trail) ws
    in
    List.map
      (fun name ->
        let series = List.filter_map (fun w -> List.assoc_opt name w.w_values) tail in
        let last = match List.rev series with v :: _ -> v | [] -> 0.0 in
        Printf.sprintf "%-24s %14.1f |%s|" name last (sparkline series))
      names

(* A `top`-style text dashboard: one line per metric with the latest
   value and a sparkline over the last [trail] windows. *)
let render_top ?(trail = 48) ?(title = "p4update top") t =
  let ws = windows t in
  match List.rev ws with
  | [] -> title ^ ": (no windows yet)\n"
  | latest :: _ ->
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      (Printf.sprintf "%s — %d windows x %.0f ms, t=%.0f ms\n" title
         (List.length ws) t.ts_tick_ms latest.w_t_ms);
    let tail = ws |> List.rev |> List.filteri (fun i _ -> i < trail) |> List.rev in
    List.iter
      (fun (name, unit_) ->
        let series =
          List.filter_map (fun w -> List.assoc_opt name w.w_values) tail
        in
        let last = match List.assoc_opt name latest.w_values with Some v -> v | None -> 0.0 in
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %14.1f %-9s |%s|\n" name last unit_
             (sparkline series)))
      (labels t);
    Buffer.contents buf
