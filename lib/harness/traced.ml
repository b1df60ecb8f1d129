(* Traced scenario runners and the per-update phase breakdown.

   A run is executed with a trace sink installed; afterwards the span tree
   is folded into one row per (flow, version): where the update's
   end-to-end time went.  The decomposition is exact by construction —
   every phase is a difference of milestones on the update's root span, so
   the phases sum to the root span's duration (the completion time). *)

module Sim = Dessim.Sim

type phase_row = {
  ph_flow : int;
  ph_version : int;
  ph_prep : float;  (** controller compute before the first UIM leaves *)
  ph_ctl_flight : float;  (** push -> last UIM applied at a switch *)
  ph_propagation : float;  (** UNM hop time on the data plane *)
  ph_verification : float;  (** Alg. 1/2 rounds + rule-install waits *)
  ph_ack : float;  (** last commit -> success UFM at the controller *)
  ph_total : float;
}

(* --- span-tree folding --- *)

type span_acc = {
  sa_name : string;
  sa_begin : float;
  sa_flow : int;
  sa_version : int;
  mutable sa_end : float option;
  mutable sa_end_attrs : Obs.Trace.attr list;
}

let attr_int key attrs =
  match List.assoc_opt key attrs with
  | Some (Obs.Json.Int i) -> Some i
  | _ -> None

let attr_str key attrs =
  match List.assoc_opt key attrs with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

(* Fold a sink's events into phase rows (updates with a completed root
   span only). *)
let phase_rows sink =
  let spans : (int, span_acc) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (function
      | Obs.Trace.Span_begin b ->
        (match (attr_int "flow" b.attrs, attr_int "version" b.attrs) with
        | Some flow, Some version ->
          Hashtbl.replace spans b.id
            {
              sa_name = b.name;
              sa_begin = b.ts;
              sa_flow = flow;
              sa_version = version;
              sa_end = None;
              sa_end_attrs = [];
            }
        | _ -> ())
      | Obs.Trace.Span_end { id; ts; attrs } -> (
        match Hashtbl.find_opt spans id with
        | Some sa ->
          sa.sa_end <- Some ts;
          sa.sa_end_attrs <- attrs
        | None -> ())
      | Obs.Trace.Instant _ -> ())
    (Obs.Trace.events sink);
  (* Milestones per (flow, version). *)
  let roots = Hashtbl.create 16 in
  let milestones = Hashtbl.create 64 in
  let get key = Option.value (Hashtbl.find_opt milestones key) ~default:(0.0, 0.0, 0.0) in
  Hashtbl.iter
    (fun _ sa ->
      let key = (sa.sa_flow, sa.sa_version) in
      match (sa.sa_name, sa.sa_end) with
      | "update", Some e -> Hashtbl.replace roots key (sa.sa_begin, e)
      | "uim.flight", Some e ->
        let m1, m2, prop = get key in
        Hashtbl.replace milestones key (Float.max m1 e, m2, prop)
      | "commit", Some e when attr_str "outcome" sa.sa_end_attrs = Some "committed" ->
        let m1, m2, prop = get key in
        Hashtbl.replace milestones key (m1, Float.max m2 e, prop)
      | "unm.hop", Some e ->
        let m1, m2, prop = get key in
        Hashtbl.replace milestones key (m1, m2, prop +. (e -. sa.sa_begin))
      | _ -> ())
    spans;
  let rows =
    Hashtbl.fold
      (fun ((flow, version) as key) (m0, m3) acc ->
        let m1, m2, prop_raw = get key in
        (* Clamp milestones into the root's window: a lost-then-retransmitted
           UIM can land after the update already completed via another path. *)
        let m1 = Float.min (Float.max m1 m0) m3 in
        let m2 = Float.min (Float.max m2 m1) m3 in
        let verify_window = m2 -. m1 in
        let propagation = Float.min (Float.max prop_raw 0.0) verify_window in
        {
          ph_flow = flow;
          ph_version = version;
          ph_prep = 0.0;
          (* prepare() runs within the push instant of simulated time *)
          ph_ctl_flight = m1 -. m0;
          ph_propagation = propagation;
          ph_verification = verify_window -. propagation;
          ph_ack = m3 -. m2;
          ph_total = m3 -. m0;
        }
        :: acc)
      roots []
  in
  List.sort
    (fun a b ->
      match compare a.ph_flow b.ph_flow with
      | 0 -> compare a.ph_version b.ph_version
      | n -> n)
    rows

let render_phases rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "flow    ver      prep  ctl-flight  propagation  verification         ack       total\n";
  let line r =
    Buffer.add_string buf
      (Printf.sprintf "%-6d %4d  %8.2f  %10.2f  %11.2f  %12.2f  %10.2f  %10.2f\n"
         r.ph_flow r.ph_version r.ph_prep r.ph_ctl_flight r.ph_propagation
         r.ph_verification r.ph_ack r.ph_total)
  in
  List.iter line rows;
  (match rows with
  | [] | [ _ ] -> ()
  | _ ->
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
    Buffer.add_string buf
      (Printf.sprintf "%-6s %4s  %8.2f  %10.2f  %11.2f  %12.2f  %10.2f  %10.2f\n" "all" ""
         (sum (fun r -> r.ph_prep))
         (sum (fun r -> r.ph_ctl_flight))
         (sum (fun r -> r.ph_propagation))
         (sum (fun r -> r.ph_verification))
         (sum (fun r -> r.ph_ack))
         (sum (fun r -> r.ph_total))));
  Buffer.contents buf

(* --- traced runners --- *)

type result = {
  tr_sink : Obs.Trace.sink;
  tr_completion_ms : float;
  tr_phases : phase_row list;
}

let run (cfg : Run_config.t) setup system =
  let sink =
    match cfg.Run_config.trace_sink with
    | Some s -> s
    | None -> Obs.Trace.create ~exclude:[ "sim"; "net"; "p4rt" ] ()
  in
  Obs.Trace.install sink;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      let completion = Scenarios.run setup system ~seed:cfg.Run_config.seed in
      { tr_sink = sink; tr_completion_ms = completion; tr_phases = phase_rows sink })
