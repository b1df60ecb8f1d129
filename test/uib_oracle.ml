(* The per-register UIB: one width-truncated [Register.t] per Table 1
   register and per port register, the layout [P4update.Uib] had before
   it packed a switch's state into one flow-major 16-bit store.  Kept
   as the oracle of test_uib.ml's differential property: same values,
   same bounds, same fingerprint. *)

module Wire = P4update.Wire

type t = {
  (* Table 1 registers, per flow. *)
  new_version : Register.t;
  new_distance : Register.t;
  old_version : Register.t;
  old_distance : Register.t;
  egress_port : Register.t;
  notify_port : Register.t;
  flow_size : Register.t;
  last_type : Register.t;
  counter : Register.t;
  (* Staging registers for the highest UIM (egress_port_updated and the
     other label contents of §8). *)
  uim_version : Register.t;
  uim_distance : Register.t;
  uim_egress : Register.t; (* egress_port_updated *)
  uim_notify : Register.t;
  uim_role : Register.t;
  uim_type : Register.t;
  uim_size : Register.t;
  ufm_sent : Register.t;
  cleaned : Register.t;
  chain_ok : Register.t;
  tagged_port : Register.t;
  tagged_version : Register.t;
  stamp_tag : Register.t;
  (* Abort plane: highest withdrawn version (§11 abort).  Staging at or
     below this floor is rejected, so late duplicate UIMs of an aborted
     update cannot resurrect it. *)
  withdrawn_version : Register.t;
  (* Per-port capacity accounting. *)
  port_capacity : Register.t;
  reserved : Register.t;
  waiters : Register.t;
}

let per_flow name = Register.create ~name ~width:16 ~size:Wire.flow_space
let per_port name ports = Register.create ~name ~width:24 ~size:(max 1 ports)

let create ~ports =
  {
    new_version = per_flow "new_version";
    new_distance = per_flow "new_distance";
    old_version = per_flow "old_version";
    old_distance = per_flow "old_distance";
    egress_port = per_flow "egress_port";
    notify_port = per_flow "notify_port";
    flow_size = per_flow "flow_size";
    last_type = per_flow "t";
    counter = per_flow "counter";
    uim_version = per_flow "uim_version";
    uim_distance = per_flow "uim_distance";
    uim_egress = per_flow "egress_port_updated";
    uim_notify = per_flow "uim_notify";
    uim_role = per_flow "uim_role";
    uim_type = per_flow "uim_type";
    uim_size = per_flow "uim_size";
    ufm_sent = per_flow "ufm_sent";
    cleaned = per_flow "cleaned";
    chain_ok = per_flow "chain_ok";
    tagged_port = per_flow "tagged_port";
    tagged_version = per_flow "tagged_version";
    stamp_tag = per_flow "stamp_tag";
    withdrawn_version = per_flow "withdrawn_version";
    port_capacity = per_port "port_capacity" ports;
    reserved = per_port "reserved" ports;
    waiters = per_port "waiters" ports;
  }

(* Every register, for [reset] and [fingerprint]. *)
let registers t =
  [
    t.new_version; t.new_distance; t.old_version; t.old_distance; t.egress_port;
    t.notify_port; t.flow_size; t.last_type; t.counter;
    t.uim_version; t.uim_distance; t.uim_egress; t.uim_notify; t.uim_role;
    t.uim_type; t.uim_size; t.ufm_sent; t.cleaned; t.chain_ok; t.tagged_port; t.tagged_version;
    t.stamp_tag; t.withdrawn_version; t.port_capacity; t.reserved; t.waiters;
  ]

(* A restarted switch comes back with factory-zero registers: every
   committed rule, staged indication and reservation is gone (§11). *)
let reset t = List.iter Register.clear (registers t)

(* Content digest of every register cell, for the model checker's
   state-fingerprint pruning.  A hand-rolled multiplicative mix rather
   than [Hashtbl.hash], which only samples a bounded prefix of large
   arrays and would alias distinct UIB states. *)
let fingerprint t =
  List.fold_left
    (fun acc r ->
      Array.fold_left (fun h cell -> (h * 31) lxor cell) (acc * 131) (Register.dump r))
    17 (registers t)

(* Freshly created registers are all zero, but "no rule" must read as
   [Wire.port_none]; we keep the raw cells zero-initialized and translate
   port reads instead: a 0 version means "never configured", under which
   the egress port is reported as none. *)

let ver_cur t fid = Register.read t.new_version fid
let dist_cur t fid = Register.read t.new_distance fid
let ver_prev t fid = Register.read t.old_version fid
let dist_prev t fid = Register.read t.old_distance fid

let egress_port t fid =
  if ver_cur t fid = 0 then Wire.port_none else Register.read t.egress_port fid

let notify_port t fid =
  if ver_cur t fid = 0 then Wire.port_none else Register.read t.notify_port fid

let flow_size t fid = Register.read t.flow_size fid
let last_type t fid = Register.read t.last_type fid
let counter t fid = Register.read t.counter fid

let set_ver_cur t fid v = Register.write t.new_version fid v
let set_dist_cur t fid v = Register.write t.new_distance fid v
let set_ver_prev t fid v = Register.write t.old_version fid v
let set_dist_prev t fid v = Register.write t.old_distance fid v
let set_egress_port t fid v = Register.write t.egress_port fid v
let set_notify_port t fid v = Register.write t.notify_port fid v
let set_flow_size t fid v = Register.write t.flow_size fid v
let set_last_type t fid v = Register.write t.last_type fid v
let set_counter t fid v = Register.write t.counter fid v

let uim_version t fid = Register.read t.uim_version fid
let uim_distance t fid = Register.read t.uim_distance fid
let uim_egress t fid = Register.read t.uim_egress fid
let uim_notify t fid = Register.read t.uim_notify fid
let uim_role t fid = Register.read t.uim_role fid
let uim_type t fid = Register.read t.uim_type fid
let uim_size t fid = Register.read t.uim_size fid

let withdrawn_version t fid = Register.read t.withdrawn_version fid

(* Raise the withdraw floor to [version] (never lowered); no-op when the
   version already committed.  Returns [true] when staged state for
   exactly this version was present and is now dead. *)
let withdraw t fid ~version =
  if ver_cur t fid >= version then false
  else begin
    let had_staged = uim_version t fid = version in
    if version > withdrawn_version t fid then
      Register.write t.withdrawn_version fid version;
    had_staged
  end

let stage_uim t fid (c : Wire.control) =
  if c.version_new <= uim_version t fid || c.version_new <= withdrawn_version t fid
  then false
  else begin
    Register.write t.uim_version fid c.version_new;
    Register.write t.uim_distance fid c.dist_new;
    Register.write t.uim_egress fid c.egress_port;
    Register.write t.uim_notify fid c.notify_port;
    Register.write t.uim_role fid c.role;
    Register.write t.uim_type fid (Wire.update_type_to_int c.update_type);
    Register.write t.uim_size fid c.flow_size;
    true
  end

let port_capacity t port = Register.read t.port_capacity port
let set_port_capacity t port v = Register.write t.port_capacity port v
let reserved t port = Register.read t.reserved port
let reserve t port amount = Register.write t.reserved port (reserved t port + amount)

let release t port amount =
  Register.write t.reserved port (max 0 (reserved t port - amount))

let remaining t port = port_capacity t port - reserved t port
let waiters t port = Register.read t.waiters port
let add_waiter t port = Register.write t.waiters port (waiters t port + 1)
let remove_waiter t port = Register.write t.waiters port (max 0 (waiters t port - 1))

let chain_ok t fid = Register.read t.chain_ok fid
let set_chain_ok t fid v = Register.write t.chain_ok fid v
let tagged_port t fid = Register.read t.tagged_port fid
let tagged_version t fid = Register.read t.tagged_version fid
let stamp_tag t fid = Register.read t.stamp_tag fid
let set_tagged_port t fid v = Register.write t.tagged_port fid v
let set_tagged_version t fid v = Register.write t.tagged_version fid v
let set_stamp_tag t fid v = Register.write t.stamp_tag fid v

let cleaned t fid = Register.read t.cleaned fid
let set_cleaned t fid v = Register.write t.cleaned fid v
let ufm_sent t fid = Register.read t.ufm_sent fid
let set_ufm_sent t fid v = Register.write t.ufm_sent fid v
