type instance_kind = Normal | Cloned | Resubmitted

(* The packet is [frame] laid out by [path].  [shared] says that [frame]
   may be seen outside this context (the received buffer, or bytes
   handed out since): the next write copies it first.  [hit] is the
   schema last looked up on [path] and [hit_offset] its offset there
   (-1: absent), so that a control's run of field accesses to one header
   looks it up once. *)
type ctx = {
  mutable frame : Bytes.t;
  mutable path : Parser.path;
  mutable shared : bool;
  mutable hit : Header.schema;
  mutable hit_offset : int;
  in_port : int;
  kind : instance_kind;
  mutable egress : int; (* no_egress until [set_egress], and after a drop *)
  mutable clones : int list; (* clone sessions requested, newest first *)
  mutable wants_resubmit : bool;
  mutable digests : Bytes.t list; (* newest first *)
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
  resubmitted : Bytes.t option;
  to_controller : Bytes.t list;
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

type field = { schema : Header.schema; at : Header.field }

let field schema name = { schema; at = Header.field schema name }

let lookup ctx schema =
  if ctx.hit == schema then ctx.hit_offset
  else begin
    let offset = Parser.offset ctx.path schema in
    ctx.hit <- schema;
    ctx.hit_offset <- offset;
    offset
  end

let valid ctx schema = lookup ctx schema >= 0

let header_offset ctx f =
  let offset = lookup ctx f.schema in
  if offset < 0 then
    invalid_arg
      (Printf.sprintf "Pipeline: no %s header in the packet" (Header.schema_name f.schema));
  offset

let get ctx f = Header.load f.at ctx.frame (header_offset ctx f)

let set ctx f v =
  let offset = header_offset ctx f in
  if ctx.shared then begin
    ctx.frame <- Bytes.copy ctx.frame;
    ctx.shared <- false
  end;
  Header.store f.at ctx.frame offset v

let frame ctx =
  ctx.shared <- true;
  ctx.frame

let packet ctx = Parser.packet_of_path ctx.path ctx.frame

(* Placeholder for [hit]: no path holds it. *)
let no_header = Header.define ~name:"none" [ ("none", 8) ]

let set_packet ctx pkt =
  ctx.frame <- Packet.serialize pkt;
  ctx.path <- Parser.path_of_packet pkt;
  ctx.shared <- false;
  ctx.hit <- no_header

let ingress_port ctx = ctx.in_port
let instance ctx = ctx.kind

let no_egress = min_int
let set_egress ctx port = ctx.egress <- port
let egress_spec ctx = if ctx.egress = no_egress then None else Some ctx.egress
let mark_to_drop ctx = ctx.egress <- no_egress
let clone ctx ~session = ctx.clones <- session :: ctx.clones
let resubmit ctx = ctx.wants_resubmit <- true
let digest ctx msg = ctx.digests <- msg :: ctx.digests

let register t reg_name =
  match Hashtbl.find_opt t.registers reg_name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Pipeline(%s): unknown register %s" t.pipe_name reg_name)

let table t table_name =
  match Hashtbl.find_opt t.tables table_name with
  | Some tb -> tb
  | None -> invalid_arg (Printf.sprintf "Pipeline(%s): unknown table %s" t.pipe_name table_name)

let set_clone_session t ~session ~port = Hashtbl.replace t.clone_sessions session port

let fresh_ctx frame path ~in_port ~kind ~egress ~digests =
  {
    frame;
    path;
    shared = true;
    hit = no_header;
    hit_offset = -1;
    in_port;
    kind;
    egress;
    clones = [];
    wants_resubmit = false;
    digests;
  }

let c_parse_errors = Obs.Metrics.(counter global) "p4rt.parser.errors"

let instance_name = function
  | Normal -> "normal"
  | Cloned -> "cloned"
  | Resubmitted -> "resubmitted"

let no_outcome = { emissions = []; resubmitted = None; to_controller = [] }

(* The egress control; true when the packet leaves.  The deparser's
   image is then the frame itself. *)
let egress_pass t ctx =
  t.program.prog_egress ctx;
  ctx.egress <> no_egress

let emission ctx = { out_port = ctx.egress; bytes = frame ctx }

(* Clones are snapshotted at the end of ingress, as with BMv2's clone3
   from the ingress pipeline; sessions without a port emit nothing.
   Each clone runs its own egress pass, whose digests join [ictx]'s. *)
let rec clone_emissions t ictx frame path = function
  | [] -> []
  | session :: rest -> (
    match Hashtbl.find_opt t.clone_sessions session with
    | None -> clone_emissions t ictx frame path rest
    | Some port ->
      let ectx =
        fresh_ctx frame path ~in_port:ictx.in_port ~kind:Cloned ~egress:port
          ~digests:ictx.digests
      in
      let leaves = egress_pass t ectx in
      ictx.digests <- ectx.digests;
      let rest = clone_emissions t ictx frame path rest in
      if leaves then emission ectx :: rest else rest)

(* The main egress pass reuses the ingress context.  Clone sessions and
   the resubmit request are read before it runs, so an egress control
   cannot add to them, and the clones' snapshot is marked shared, so the
   egress pass writes to a copy. *)
let run_parsed t ~ingress_port ~instance bytes path =
  let ctx =
    fresh_ctx bytes path ~in_port:ingress_port ~kind:instance ~egress:no_egress ~digests:[]
  in
  t.program.prog_ingress ctx;
  let resubmitted = if ctx.wants_resubmit then Some (frame ctx) else None in
  let sessions = ctx.clones and snapshot_path = ctx.path in
  let snapshot = match sessions with [] -> ctx.frame | _ -> frame ctx in
  let leaves = ctx.egress <> no_egress && egress_pass t ctx in
  let clones = clone_emissions t ctx snapshot snapshot_path (List.rev sessions) in
  let emissions = if leaves then emission ctx :: clones else clones in
  { emissions; resubmitted; to_controller = List.rev ctx.digests }

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
    match Parser.walk t.program.prog_parser bytes with
    | exception Parser.Parse_error _ ->
      Obs.Metrics.incr c_parse_errors;
      no_outcome
    | path -> run_parsed t ~ingress_port ~instance bytes path
  in
  if span <> 0 then
    Obs.Trace.span_end span
      ~attrs:
        [
          Obs.Trace.int "emissions" (List.length outcome.emissions);
          Obs.Trace.int "digests" (List.length outcome.to_controller);
          ("resubmit", Obs.Json.Bool (Option.is_some outcome.resubmitted));
        ];
  outcome
