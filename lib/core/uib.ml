(* A switch's registers live in two flat stores.  Every per-flow register
   is 16 bits wide, so the per-flow cells share one [Bytes.t], flow-major:
   cell (fid, field) is the 16-bit word at byte 2 * (fid * flow_fields +
   field), and one flow's whole state is one contiguous span that a UIM
   or UNM touches in a cache line or two.  A [Bytes.t] is opaque to the
   GC, so the major collector never scans the cells.  The three 24-bit
   per-port registers are one port-major [int array]. *)

(* Per-flow fields, in the order [fingerprint] folds them. *)
let f_new_version = 0
let f_new_distance = 1
let f_old_version = 2
let f_old_distance = 3
let f_egress_port = 4
let f_notify_port = 5
let f_flow_size = 6
let f_last_type = 7 (* register [t] *)
let f_counter = 8

(* Staging registers for the highest UIM (egress_port_updated and the
   other label contents of §8). *)
let f_uim_version = 9
let f_uim_distance = 10
let f_uim_egress = 11 (* egress_port_updated *)
let f_uim_notify = 12
let f_uim_role = 13
let f_uim_type = 14
let f_uim_size = 15
let f_ufm_sent = 16
let f_cleaned = 17
let f_chain_ok = 18
let f_tagged_port = 19
let f_tagged_version = 20
let f_stamp_tag = 21

(* Abort plane: highest withdrawn version (§11 abort).  Staging at or
   below this floor is rejected, so late duplicate UIMs of an aborted
   update cannot resurrect it. *)
let f_withdrawn_version = 22
let flow_fields = 23

(* Per-port fields. *)
let p_capacity = 0
let p_reserved = 1
let p_waiters = 2
let port_fields = 3

type t = {
  flows : Bytes.t; (* [Wire.flow_space * flow_fields] 16-bit cells *)
  ports : int array; (* [nports * port_fields] 24-bit cells *)
  nports : int;
}

(* The store is private to this module, so native byte order is fine. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let create ~ports =
  let nports = max 1 ports in
  {
    flows = Bytes.make (2 * Wire.flow_space * flow_fields) '\000';
    ports = Array.make (nports * port_fields) 0;
    nports;
  }

(* A restarted switch comes back with factory-zero registers: every
   committed rule, staged indication and reservation is gone (§11). *)
let reset t =
  Bytes.fill t.flows 0 (Bytes.length t.flows) '\000';
  Array.fill t.ports 0 (Array.length t.ports) 0

(* An index out of range must raise, never alias a neighbour's cells;
   the message is built only on this cold path. *)
let[@inline never] out_of_range what i bound =
  invalid_arg (Printf.sprintf "Uib: %s %d outside [0, %d)" what i bound)

let[@inline] flow_cell fid field =
  if fid < 0 || fid >= Wire.flow_space then out_of_range "flow id" fid Wire.flow_space;
  2 * ((fid * flow_fields) + field)

let[@inline] port_cell t port field =
  if port < 0 || port >= t.nports then out_of_range "port" port t.nports;
  (port * port_fields) + field

let[@inline] get t fid field = get16 t.flows (flow_cell fid field)
let[@inline] set t fid field v = set16 t.flows (flow_cell fid field) (v land 0xFFFF)
let[@inline] pget t port field = Array.unsafe_get t.ports (port_cell t port field)

let[@inline] pset t port field v =
  Array.unsafe_set t.ports (port_cell t port field) (v land 0xFF_FFFF)

(* Content digest of every register cell, for the model checker's
   state-fingerprint pruning: register by register, cell by cell, the
   order of the per-register layout this store replaced, so digests
   carry over.  A hand-rolled multiplicative mix rather than
   [Hashtbl.hash], which only samples a bounded prefix of large values
   and would alias distinct UIB states. *)
let fingerprint t =
  let acc = ref 17 in
  for field = 0 to flow_fields - 1 do
    let h = ref (!acc * 131) in
    for fid = 0 to Wire.flow_space - 1 do
      h := (!h * 31) lxor get16 t.flows (2 * ((fid * flow_fields) + field))
    done;
    acc := !h
  done;
  for field = 0 to port_fields - 1 do
    let h = ref (!acc * 131) in
    for port = 0 to t.nports - 1 do
      h := (!h * 31) lxor t.ports.((port * port_fields) + field)
    done;
    acc := !h
  done;
  !acc

(* Freshly created registers are all zero, but "no rule" must read as
   [Wire.port_none]; we keep the raw cells zero-initialized and translate
   port reads instead: a 0 version means "never configured", under which
   the egress port is reported as none. *)

let ver_cur t fid = get t fid f_new_version
let dist_cur t fid = get t fid f_new_distance
let ver_prev t fid = get t fid f_old_version
let dist_prev t fid = get t fid f_old_distance

let egress_port t fid =
  if ver_cur t fid = 0 then Wire.port_none else get t fid f_egress_port

let notify_port t fid =
  if ver_cur t fid = 0 then Wire.port_none else get t fid f_notify_port

let flow_size t fid = get t fid f_flow_size
let last_type t fid = get t fid f_last_type
let counter t fid = get t fid f_counter

let set_ver_cur t fid v = set t fid f_new_version v
let set_dist_cur t fid v = set t fid f_new_distance v
let set_ver_prev t fid v = set t fid f_old_version v
let set_dist_prev t fid v = set t fid f_old_distance v
let set_egress_port t fid v = set t fid f_egress_port v
let set_notify_port t fid v = set t fid f_notify_port v
let set_flow_size t fid v = set t fid f_flow_size v
let set_last_type t fid v = set t fid f_last_type v
let set_counter t fid v = set t fid f_counter v

let uim_version t fid = get t fid f_uim_version
let uim_distance t fid = get t fid f_uim_distance
let uim_egress t fid = get t fid f_uim_egress
let uim_notify t fid = get t fid f_uim_notify
let uim_role t fid = get t fid f_uim_role
let uim_type t fid = get t fid f_uim_type
let uim_size t fid = get t fid f_uim_size

let withdrawn_version t fid = get t fid f_withdrawn_version

(* Raise the withdraw floor to [version] (never lowered); no-op when the
   version already committed.  Returns [true] when staged state for
   exactly this version was present and is now dead. *)
let withdraw t fid ~version =
  if ver_cur t fid >= version then false
  else begin
    let had_staged = uim_version t fid = version in
    if version > withdrawn_version t fid then set t fid f_withdrawn_version version;
    had_staged
  end

(* The staged fields are read straight from the indication's frame;
   [fid] is its flow id already masked to a register index. *)
let stage_uim t fid frame =
  let version = Wire.control_version_new_of_bytes frame in
  if version <= uim_version t fid || version <= withdrawn_version t fid then false
  else begin
    set t fid f_uim_version version;
    set t fid f_uim_distance (Wire.control_dist_new_of_bytes frame);
    set t fid f_uim_egress (Wire.control_egress_port_of_bytes frame);
    set t fid f_uim_notify (Wire.control_notify_port_of_bytes frame);
    set t fid f_uim_role (Wire.control_role_of_bytes frame);
    set t fid f_uim_type (Wire.control_update_type_of_bytes frame);
    set t fid f_uim_size (Wire.control_flow_size_of_bytes frame);
    true
  end

let port_capacity t port = pget t port p_capacity
let set_port_capacity t port v = pset t port p_capacity v
let reserved t port = pget t port p_reserved
let reserve t port amount = pset t port p_reserved (reserved t port + amount)
let release t port amount = pset t port p_reserved (max 0 (reserved t port - amount))
let remaining t port = port_capacity t port - reserved t port
let waiters t port = pget t port p_waiters
let add_waiter t port = pset t port p_waiters (waiters t port + 1)
let remove_waiter t port = pset t port p_waiters (max 0 (waiters t port - 1))

let chain_ok t fid = get t fid f_chain_ok
let set_chain_ok t fid v = set t fid f_chain_ok v
let tagged_port t fid = get t fid f_tagged_port
let tagged_version t fid = get t fid f_tagged_version
let stamp_tag t fid = get t fid f_stamp_tag
let set_tagged_port t fid v = set t fid f_tagged_port v
let set_tagged_version t fid v = set t fid f_tagged_version v
let set_stamp_tag t fid v = set t fid f_stamp_tag v

let cleaned t fid = get t fid f_cleaned
let set_cleaned t fid v = set t fid f_cleaned v
let ufm_sent t fid = get t fid f_ufm_sent
let set_ufm_sent t fid v = set t fid f_ufm_sent v
