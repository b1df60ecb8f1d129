(* Cross-layer trace sink.

   A sink belongs to the one simulation that adopts it ([Dessim.Sim.create
   ~trace]) and collects span begin/end pairs and instant events stamped
   with that simulation's clock.  Layers read the sink from their own
   simulation; an untraced simulation has none, so the instrumented hot
   paths cost one field load + branch — the "no-op when disabled"
   guarantee DESIGN.md documents.

   Causality: spans carry an optional parent span id.  Layers that cannot
   thread ids through function arguments (wire messages have a fixed byte
   format) park span ids in the sink's anchor table under a (kind, flow,
   version, node) key and the receiving side picks them up.

   Determinism: the sink never consumes simulator randomness and never
   schedules events; timestamps come from the adopting simulation's
   clock.  Two same-seed runs therefore produce byte-identical JSONL — a
   property the test suite asserts. *)

type attr = string * Json.t

type span_info = {
  id : int;
  parent : int;  (** 0 = no parent *)
  name : string;
  cat : string;
  node : int;  (** -1 = controller / global *)
  ts : float;  (** simulated ms *)
  attrs : attr list;
}

type event =
  | Span_begin of span_info
  | Span_end of { id : int; ts : float; attrs : attr list }
  | Instant of {
      name : string;
      cat : string;
      node : int;
      ts : float;
      parent : int;
      attrs : attr list;
    }

type anchor = Update | Uim | Unm | Ufm

type sink = {
  mutable events : event list;  (** newest first *)
  mutable next_id : int;
  mutable clock : (unit -> float) option;  (** the adopting simulation's *)
  exclude : string list;  (** categories filtered out at record time *)
  anchors : (anchor * int * int * int, int) Hashtbl.t;
}

let create ?(exclude = [ "sim" ]) () =
  {
    events = [];
    next_id = 1;
    clock = None;
    exclude;
    anchors = Hashtbl.create 64;
  }

let adopt s ~clock =
  if Option.is_some s.clock then
    invalid_arg "Trace.adopt: this sink already belongs to a simulation";
  s.clock <- Some clock

let now s = match s.clock with Some clock -> clock () | None -> 0.0

let record s ev = s.events <- ev :: s.events

let cat_enabled s cat = not (List.mem cat s.exclude)

let span_begin s ?(parent = 0) ?(attrs = []) ?(node = -1) ~cat name =
  if not (cat_enabled s cat) then 0
  else begin
    let id = s.next_id in
    s.next_id <- id + 1;
    record s (Span_begin { id; parent; name; cat; node; ts = now s; attrs });
    id
  end

let span_end s ?(attrs = []) id =
  if id <> 0 then record s (Span_end { id; ts = now s; attrs })

let instant s ?(parent = 0) ?(attrs = []) ?(node = -1) ~cat name =
  if cat_enabled s cat then
    record s (Instant { name; cat; node; ts = now s; parent; attrs })

let with_span s ?parent ?attrs ?node ~cat name f =
  let id = span_begin s ?parent ?attrs ?node ~cat name in
  match f () with
  | v ->
    span_end s id;
    v
  | exception e ->
    span_end s ~attrs:[ ("error", Json.Bool true) ] id;
    raise e

(* --- anchors: span handoff across wire messages --- *)

let anchor_set s ?(node = -1) kind ~flow ~version id =
  if id <> 0 then Hashtbl.replace s.anchors (kind, flow, version, node) id

let anchor_get s ?(node = -1) kind ~flow ~version =
  Option.value (Hashtbl.find_opt s.anchors (kind, flow, version, node)) ~default:0

let anchor_pop s ?(node = -1) kind ~flow ~version =
  let key = (kind, flow, version, node) in
  match Hashtbl.find_opt s.anchors key with
  | Some id ->
    Hashtbl.remove s.anchors key;
    id
  | None -> 0

(* --- introspection --- *)

let events s = List.rev s.events

(* --- exporters --- *)

let attrs_json attrs = Json.Obj attrs

let event_json = function
  | Span_begin { id; parent; name; cat; node; ts; attrs } ->
    Json.Obj
      ([ ("ev", Json.Str "b"); ("id", Json.Int id) ]
      @ (if parent <> 0 then [ ("parent", Json.Int parent) ] else [])
      @ [
          ("name", Json.Str name);
          ("cat", Json.Str cat);
          ("node", Json.Int node);
          ("ts", Json.Float ts);
        ]
      @ if attrs = [] then [] else [ ("attrs", attrs_json attrs) ])
  | Span_end { id; ts; attrs } ->
    Json.Obj
      ([ ("ev", Json.Str "e"); ("id", Json.Int id); ("ts", Json.Float ts) ]
      @ if attrs = [] then [] else [ ("attrs", attrs_json attrs) ])
  | Instant { name; cat; node; ts; parent; attrs } ->
    Json.Obj
      ([ ("ev", Json.Str "i") ]
      @ (if parent <> 0 then [ ("parent", Json.Int parent) ] else [])
      @ [
          ("name", Json.Str name);
          ("cat", Json.Str cat);
          ("node", Json.Int node);
          ("ts", Json.Float ts);
        ]
      @ if attrs = [] then [] else [ ("attrs", attrs_json attrs) ])

let to_jsonl s =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Json.to_string (event_json ev));
      Buffer.add_char buf '\n')
    (events s);
  Buffer.contents buf

(* Chrome trace-event format (the JSON array flavour Perfetto and
   chrome://tracing both load).  Simulated ms map to trace microseconds;
   node i becomes tid i+1 on pid 0 with the controller on tid 0.  Parent
   links that cross threads are expressed as flow events ("s"/"f") so
   Perfetto draws the causal arrows between lanes. *)

let tid_of_node node = node + 1

let chrome_events evs =
  (* Collect span metadata so ends can be matched with begins. *)
  let begins = Hashtbl.create 128 in
  List.iter
    (function
      | Span_begin b -> Hashtbl.replace begins b.id (`Open b)
      | Span_end { id; ts; attrs } -> (
        match Hashtbl.find_opt begins id with
        | Some (`Open b) -> Hashtbl.replace begins id (`Closed (b, ts, attrs))
        | _ -> ())
      | Instant _ -> ())
    evs;
  let node_of_span id =
    match Hashtbl.find_opt begins id with
    | Some (`Open b) | Some (`Closed (b, _, _)) -> Some b.node
    | None -> None
  in
  let us ts = ts *. 1000.0 in
  let base_args id parent attrs =
    [ ("span_id", Json.Int id) ]
    @ (if parent <> 0 then [ ("parent", Json.Int parent) ] else [])
    @ attrs
  in
  let nodes = Hashtbl.create 16 in
  let out = ref [] in
  let emit ev = out := ev :: !out in
  let flow_seq = ref 0 in
  let emit_flow ~parent ~child_ts ~child_node ~parent_node =
    (* One flow arrow from the parent span's lane to the child's start. *)
    incr flow_seq;
    let fid = !flow_seq in
    (match Hashtbl.find_opt begins parent with
    | Some (`Open b) | Some (`Closed (b, _, _)) ->
      emit
        (Json.Obj
           [
             ("ph", Json.Str "s");
             ("id", Json.Int fid);
             ("name", Json.Str "causality");
             ("cat", Json.Str "flow");
             ("ts", Json.Float (us b.ts));
             ("pid", Json.Int 0);
             ("tid", Json.Int (tid_of_node parent_node));
           ])
    | None -> ());
    emit
      (Json.Obj
         [
           ("ph", Json.Str "f");
           ("bp", Json.Str "e");
           ("id", Json.Int fid);
           ("name", Json.Str "causality");
           ("cat", Json.Str "flow");
           ("ts", Json.Float (us child_ts));
           ("pid", Json.Int 0);
           ("tid", Json.Int (tid_of_node child_node));
         ])
  in
  List.iter
    (fun ev ->
      match ev with
      | Span_begin b -> (
        Hashtbl.replace nodes b.node ();
        (if b.parent <> 0 then
           match node_of_span b.parent with
           | Some pnode when pnode <> b.node ->
             emit_flow ~parent:b.parent ~child_ts:b.ts ~child_node:b.node
               ~parent_node:pnode
           | _ -> ());
        match Hashtbl.find_opt begins b.id with
        | Some (`Closed (_, end_ts, end_attrs)) ->
          emit
            (Json.Obj
               [
                 ("ph", Json.Str "X");
                 ("name", Json.Str b.name);
                 ("cat", Json.Str b.cat);
                 ("ts", Json.Float (us b.ts));
                 ("dur", Json.Float (us (end_ts -. b.ts)));
                 ("pid", Json.Int 0);
                 ("tid", Json.Int (tid_of_node b.node));
                 ("args", Json.Obj (base_args b.id b.parent (b.attrs @ end_attrs)));
               ])
        | _ ->
          (* Unterminated span (e.g. update still in flight when the run was
             cut off): export as an instant so it is still visible. *)
          emit
            (Json.Obj
               [
                 ("ph", Json.Str "i");
                 ("s", Json.Str "t");
                 ("name", Json.Str (b.name ^ " (unfinished)"));
                 ("cat", Json.Str b.cat);
                 ("ts", Json.Float (us b.ts));
                 ("pid", Json.Int 0);
                 ("tid", Json.Int (tid_of_node b.node));
                 ("args", Json.Obj (base_args b.id b.parent b.attrs));
               ]))
      | Span_end _ -> ()
      | Instant { name; cat; node; ts; parent; attrs } ->
        Hashtbl.replace nodes node ();
        emit
          (Json.Obj
             [
               ("ph", Json.Str "i");
               ("s", Json.Str "t");
               ("name", Json.Str name);
               ("cat", Json.Str cat);
               ("ts", Json.Float (us ts));
               ("pid", Json.Int 0);
               ("tid", Json.Int (tid_of_node node));
               ("args", Json.Obj (base_args 0 parent attrs));
             ]))
    evs;
  let meta =
    Hashtbl.fold
      (fun node () acc ->
        let label = if node < 0 then "controller" else Printf.sprintf "node %d" node in
        Json.Obj
          [
            ("ph", Json.Str "M");
            ("name", Json.Str "thread_name");
            ("pid", Json.Int 0);
            ("tid", Json.Int (tid_of_node node));
            ("args", Json.Obj [ ("name", Json.Str label) ]);
          ]
        :: acc)
      nodes []
  in
  let meta =
    List.sort
      (fun a b ->
        match (Json.member "tid" a, Json.member "tid" b) with
        | Some (Json.Int x), Some (Json.Int y) -> compare x y
        | _ -> 0)
      meta
  in
  meta @ List.rev !out

let to_chrome ?(pretty = false) evs =
  let evs = chrome_events evs in
  if pretty then
    let buf = Buffer.create 8192 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf "  ";
        Buffer.add_string buf (Json.to_string ev))
      evs;
    Buffer.add_string buf "\n]\n";
    Buffer.contents buf
  else Json.to_string (Json.List evs)

(* --- convenience attribute builders --- *)

let flow f = ("flow", Json.Int f)
let version v = ("version", Json.Int v)
let str k v = (k, Json.Str v)
let int k v = (k, Json.Int v)
let float k v = (k, Json.Float v)
