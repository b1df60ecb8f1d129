type instance_kind = Normal | Cloned | Resubmitted

type ctx = {
  mutable pkt : Packet.t;
  in_port : int;
  kind : instance_kind;
  mutable egress : int; (* no_egress until [set_egress] *)
  mutable dropped : bool;
  mutable clones : int list; (* clone sessions requested during ingress *)
  mutable wants_resubmit : bool;
  mutable digests : Packet.t list;
}

type program = {
  prog_parser : Parser.t;
  prog_ingress : ctx -> unit;
  prog_egress : ctx -> unit;
}

type t = {
  pipe_name : string;
  program : program;
  registers : (string, Register.t) Hashtbl.t;
  tables : (string, Table.t) Hashtbl.t;
  clone_sessions : (int, int) Hashtbl.t;
}

type emission = { out_port : int; bytes : Bytes.t }

type outcome = {
  emissions : emission list;
  resubmitted : Packet.t option;
  to_controller : Packet.t list;
}

let create ~name ~registers ~tables program =
  let reg_table = Hashtbl.create 16 and tab_table = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace reg_table (Register.name r) r) registers;
  List.iter (fun tb -> Hashtbl.replace tab_table (Table.name tb) tb) tables;
  {
    pipe_name = name;
    program;
    registers = reg_table;
    tables = tab_table;
    clone_sessions = Hashtbl.create 8;
  }

let name t = t.pipe_name

let packet ctx = ctx.pkt
let set_packet ctx pkt = ctx.pkt <- pkt
let ingress_port ctx = ctx.in_port
let instance ctx = ctx.kind

let no_egress = min_int

let set_egress ctx port =
  ctx.egress <- port;
  ctx.dropped <- false

let egress_spec ctx = if ctx.egress = no_egress then None else Some ctx.egress

let mark_to_drop ctx =
  ctx.dropped <- true;
  ctx.egress <- no_egress

let clone ctx ~session = ctx.clones <- ctx.clones @ [ session ]
let resubmit ctx = ctx.wants_resubmit <- true
let digest ctx = ctx.digests <- ctx.digests @ [ ctx.pkt ]

let register t reg_name =
  match Hashtbl.find_opt t.registers reg_name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Pipeline(%s): unknown register %s" t.pipe_name reg_name)

let table t table_name =
  match Hashtbl.find_opt t.tables table_name with
  | Some tb -> tb
  | None -> invalid_arg (Printf.sprintf "Pipeline(%s): unknown table %s" t.pipe_name table_name)

let set_clone_session t ~session ~port = Hashtbl.replace t.clone_sessions session port

let fresh_ctx pkt ~in_port ~kind ~egress =
  {
    pkt;
    in_port;
    kind;
    egress;
    dropped = false;
    clones = [];
    wants_resubmit = false;
    digests = [];
  }

let c_parse_errors = Obs.Metrics.(counter global) "p4rt.parser.errors"
let c_resubmits = Obs.Metrics.(counter global) "p4rt.pipeline.resubmit_requests"
let c_digests = Obs.Metrics.(counter global) "p4rt.pipeline.digests"

let instance_name = function
  | Normal -> "normal"
  | Cloned -> "cloned"
  | Resubmitted -> "resubmitted"

let no_outcome = { emissions = []; resubmitted = None; to_controller = [] }

(* One egress pass toward [port]; its digests are added to [ictx]'s. *)
let run_egress t ictx ~kind ~port pkt =
  let ectx = fresh_ctx pkt ~in_port:ictx.in_port ~kind ~egress:port in
  t.program.prog_egress ectx;
  (match ectx.digests with [] -> () | d -> ictx.digests <- ictx.digests @ d);
  if ectx.dropped || ectx.egress = no_egress then None
  else Some { out_port = ectx.egress; bytes = Packet.serialize ectx.pkt }

(* Clones are snapshotted at the end of ingress, as with BMv2's clone3
   from the ingress pipeline; sessions without a port emit nothing. *)
let rec clone_emissions t ictx pkt = function
  | [] -> []
  | session :: rest -> (
    match Hashtbl.find_opt t.clone_sessions session with
    | None -> clone_emissions t ictx pkt rest
    | Some port -> (
      match run_egress t ictx ~kind:Cloned ~port pkt with
      | Some e -> e :: clone_emissions t ictx pkt rest
      | None -> clone_emissions t ictx pkt rest))

let run_parsed t ~ingress_port ~instance parsed =
  let ctx = fresh_ctx parsed ~in_port:ingress_port ~kind:instance ~egress:no_egress in
  t.program.prog_ingress ctx;
  let resubmitted = if ctx.wants_resubmit then Some ctx.pkt else None in
  let pkt = ctx.pkt in
  let main =
    if ctx.dropped || ctx.egress = no_egress then None
    else run_egress t ctx ~kind:ctx.kind ~port:ctx.egress pkt
  in
  let clones = clone_emissions t ctx pkt ctx.clones in
  let emissions = match main with Some e -> e :: clones | None -> clones in
  { emissions; resubmitted; to_controller = ctx.digests }

let process t ~ingress_port ?(instance = Normal) bytes =
  let span =
    if Obs.Trace.enabled () then
      Obs.Trace.span_begin ~cat:"p4rt" "pipeline.process"
        ~attrs:
          [
            Obs.Trace.str "pipeline" t.pipe_name;
            Obs.Trace.str "instance" (instance_name instance);
            Obs.Trace.int "in_port" ingress_port;
          ]
    else 0
  in
  let outcome =
    match Parser.run t.program.prog_parser bytes with
    | exception Parser.Parse_error _ ->
      Obs.Metrics.incr c_parse_errors;
      no_outcome
    | parsed -> run_parsed t ~ingress_port ~instance parsed
  in
  if Option.is_some outcome.resubmitted then Obs.Metrics.incr c_resubmits;
  (match outcome.to_controller with
   | [] -> ()
   | digests -> Obs.Metrics.incr c_digests ~by:(List.length digests));
  if span <> 0 then
    Obs.Trace.span_end span
      ~attrs:
        [
          Obs.Trace.int "emissions" (List.length outcome.emissions);
          Obs.Trace.int "digests" (List.length outcome.to_controller);
          ("resubmit", Obs.Json.Bool (Option.is_some outcome.resubmitted));
        ];
  outcome
