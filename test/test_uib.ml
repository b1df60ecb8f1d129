(* The packed UIB against the per-register oracle ([Uib_oracle]), and a
   guard on its heap footprint. *)

open P4update
module O = Uib_oracle

let flow_getters =
  [
    ("ver_cur", Uib.ver_cur, O.ver_cur);
    ("dist_cur", Uib.dist_cur, O.dist_cur);
    ("ver_prev", Uib.ver_prev, O.ver_prev);
    ("dist_prev", Uib.dist_prev, O.dist_prev);
    ("egress_port", Uib.egress_port, O.egress_port);
    ("notify_port", Uib.notify_port, O.notify_port);
    ("flow_size", Uib.flow_size, O.flow_size);
    ("last_type", Uib.last_type, O.last_type);
    ("counter", Uib.counter, O.counter);
    ("uim_version", Uib.uim_version, O.uim_version);
    ("uim_distance", Uib.uim_distance, O.uim_distance);
    ("uim_egress", Uib.uim_egress, O.uim_egress);
    ("uim_notify", Uib.uim_notify, O.uim_notify);
    ("uim_role", Uib.uim_role, O.uim_role);
    ("uim_type", Uib.uim_type, O.uim_type);
    ("uim_size", Uib.uim_size, O.uim_size);
    ("withdrawn_version", Uib.withdrawn_version, O.withdrawn_version);
    ("chain_ok", Uib.chain_ok, O.chain_ok);
    ("tagged_port", Uib.tagged_port, O.tagged_port);
    ("tagged_version", Uib.tagged_version, O.tagged_version);
    ("stamp_tag", Uib.stamp_tag, O.stamp_tag);
    ("cleaned", Uib.cleaned, O.cleaned);
    ("ufm_sent", Uib.ufm_sent, O.ufm_sent);
  ]

let flow_setters =
  [
    ("set_ver_cur", Uib.set_ver_cur, O.set_ver_cur);
    ("set_dist_cur", Uib.set_dist_cur, O.set_dist_cur);
    ("set_ver_prev", Uib.set_ver_prev, O.set_ver_prev);
    ("set_dist_prev", Uib.set_dist_prev, O.set_dist_prev);
    ("set_egress_port", Uib.set_egress_port, O.set_egress_port);
    ("set_notify_port", Uib.set_notify_port, O.set_notify_port);
    ("set_flow_size", Uib.set_flow_size, O.set_flow_size);
    ("set_last_type", Uib.set_last_type, O.set_last_type);
    ("set_counter", Uib.set_counter, O.set_counter);
    ("set_chain_ok", Uib.set_chain_ok, O.set_chain_ok);
    ("set_tagged_port", Uib.set_tagged_port, O.set_tagged_port);
    ("set_tagged_version", Uib.set_tagged_version, O.set_tagged_version);
    ("set_stamp_tag", Uib.set_stamp_tag, O.set_stamp_tag);
    ("set_cleaned", Uib.set_cleaned, O.set_cleaned);
    ("set_ufm_sent", Uib.set_ufm_sent, O.set_ufm_sent);
  ]

let port_getters =
  [
    ("port_capacity", Uib.port_capacity, O.port_capacity);
    ("reserved", Uib.reserved, O.reserved);
    ("remaining", Uib.remaining, O.remaining);
    ("waiters", Uib.waiters, O.waiters);
  ]

type op =
  | Set of int * int * int  (** setter index, flow id, value *)
  | Get of int * int  (** getter index, flow id *)
  | Stage of int * Wire.control
  | Withdraw of int * int
  | Set_capacity of int * int
  | Reserve of int * int
  | Release of int * int
  | Add_waiter of int
  | Remove_waiter of int
  | Port_get of int * int  (** port getter index, port *)
  | Reset

let name3 (n, _, _) = n

let print_op = function
  | Set (i, fid, v) -> Printf.sprintf "%s %d %d" (name3 (List.nth flow_setters i)) fid v
  | Get (i, fid) -> Printf.sprintf "%s %d" (name3 (List.nth flow_getters i)) fid
  | Stage (fid, c) ->
    Printf.sprintf "stage_uim %d {v=%d d=%d e=%d n=%d r=%d t=%d s=%d}" fid c.Wire.version_new
      c.dist_new c.egress_port c.notify_port c.role
      (Wire.update_type_to_int c.update_type)
      c.flow_size
  | Withdraw (fid, v) -> Printf.sprintf "withdraw %d ~version:%d" fid v
  | Set_capacity (p, v) -> Printf.sprintf "set_port_capacity %d %d" p v
  | Reserve (p, v) -> Printf.sprintf "reserve %d %d" p v
  | Release (p, v) -> Printf.sprintf "release %d %d" p v
  | Add_waiter p -> Printf.sprintf "add_waiter %d" p
  | Remove_waiter p -> Printf.sprintf "remove_waiter %d" p
  | Port_get (i, p) -> Printf.sprintf "%s %d" (name3 (List.nth port_getters i)) p
  | Reset -> "reset"

(* Flow ids: a small pool so operations collide on a flow, any valid id,
   and ids just outside [0, flow_space) or far from it. *)
let fid_gen =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl [ 0; 1; 2; 511; Wire.flow_space - 2; Wire.flow_space - 1 ]);
        (2, int_bound (Wire.flow_space - 1));
        (1, int_range (-3) (-1));
        (1, int_range Wire.flow_space (Wire.flow_space + 3));
        (1, oneofl [ min_int; max_int; -Wire.flow_space - 1; 2 * Wire.flow_space ]);
      ])

(* Values: small, 16-bit, above 16 and 24 bits, negative, extreme. *)
let value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_bound 20);
        (2, int_bound 0xFFFF);
        (2, int_range 0x1_0000 0x3FF_FFFF);
        (1, int_range (-70_000) (-1));
        (1, oneofl [ max_int; min_int ]);
      ])

let version_gen = QCheck.Gen.(frequency [ (3, int_bound 8); (1, value_gen) ])

(* Ports: [create] gets 0-5 ports, so low ports are in or out of range
   by the draw; plus negative and far ports. *)
let port_gen =
  QCheck.Gen.(frequency [ (6, int_bound 5); (1, int_range (-2) (-1)); (1, oneofl [ 6; max_int ]) ])

let control_gen =
  QCheck.Gen.(
    map
      (fun ((version_new, dist_new, egress_port), (notify_port, role, flow_size), dl) ->
        {
          (Wire.control_default Wire.Uim) with
          version_new;
          dist_new;
          egress_port;
          notify_port;
          role;
          flow_size;
          update_type = (if dl then Wire.Dl else Wire.Sl);
        })
      (triple
         (triple version_gen value_gen value_gen)
         (triple value_gen value_gen value_gen)
         bool))

let op_gen =
  let open QCheck.Gen in
  let index l = int_bound (List.length l - 1) in
  frequency
    [
      (6, map3 (fun i fid v -> Set (i, fid, v)) (index flow_setters) fid_gen value_gen);
      (2, map2 (fun i fid -> Get (i, fid)) (index flow_getters) fid_gen);
      (4, map2 (fun fid c -> Stage (fid, c)) fid_gen control_gen);
      (2, map2 (fun fid v -> Withdraw (fid, v)) fid_gen version_gen);
      (2, map2 (fun p v -> Set_capacity (p, v)) port_gen value_gen);
      (2, map2 (fun p v -> Reserve (p, v)) port_gen value_gen);
      (2, map2 (fun p v -> Release (p, v)) port_gen value_gen);
      (1, map (fun p -> Add_waiter p) port_gen);
      (1, map (fun p -> Remove_waiter p) port_gen);
      (1, map2 (fun i p -> Port_get (i, p)) (index port_getters) port_gen);
      (1, return Reset);
    ]

(* An operation's outcome: its result, or [None] when it raised
   [Invalid_argument] on a bad index. *)
let outcome f = try Some (f ()) with Invalid_argument _ -> None

let apply u o = function
  | Set (i, fid, v) ->
    let _, set, set_o = List.nth flow_setters i in
    (outcome (fun () -> set u fid v; 0), outcome (fun () -> set_o o fid v; 0))
  | Get (i, fid) ->
    let _, get, get_o = List.nth flow_getters i in
    (outcome (fun () -> get u fid), outcome (fun () -> get_o o fid))
  | Stage (fid, c) ->
    (* The switch stages a UIM from its frame, where each field is masked
       to its wire width; the oracle stages the frame's decoded record. *)
    let frame = Wire.control_to_bytes c in
    ( outcome (fun () -> Bool.to_int (Uib.stage_uim u fid frame)),
      outcome (fun () ->
          Bool.to_int (O.stage_uim o fid (Option.get (Wire.control_of_bytes frame)))) )
  | Withdraw (fid, version) ->
    ( outcome (fun () -> Bool.to_int (Uib.withdraw u fid ~version)),
      outcome (fun () -> Bool.to_int (O.withdraw o fid ~version)) )
  | Set_capacity (p, v) ->
    ( outcome (fun () -> Uib.set_port_capacity u p v; 0),
      outcome (fun () -> O.set_port_capacity o p v; 0) )
  | Reserve (p, v) ->
    (outcome (fun () -> Uib.reserve u p v; 0), outcome (fun () -> O.reserve o p v; 0))
  | Release (p, v) ->
    (outcome (fun () -> Uib.release u p v; 0), outcome (fun () -> O.release o p v; 0))
  | Add_waiter p ->
    (outcome (fun () -> Uib.add_waiter u p; 0), outcome (fun () -> O.add_waiter o p; 0))
  | Remove_waiter p ->
    (outcome (fun () -> Uib.remove_waiter u p; 0), outcome (fun () -> O.remove_waiter o p; 0))
  | Port_get (i, p) ->
    let _, get, get_o = List.nth port_getters i in
    (outcome (fun () -> get u p), outcome (fun () -> get_o o p))
  | Reset ->
    Uib.reset u;
    O.reset o;
    (Some 0, Some 0)

let show = function Some v -> string_of_int v | None -> "Invalid_argument"

(* Every getter on [fids] and every port getter on [ports] agree. *)
let agree ~where u o ~fids ~ports =
  List.iter
    (fun (name, get, get_o) ->
      List.iter
        (fun fid ->
          let a = get u fid and b = get_o o fid in
          if a <> b then QCheck.Test.fail_reportf "%s: %s %d = %d, oracle %d" where name fid a b)
        fids)
    flow_getters;
  List.iter
    (fun (name, get, get_o) ->
      for p = 0 to ports - 1 do
        let a = get u p and b = get_o o p in
        if a <> b then QCheck.Test.fail_reportf "%s: %s %d = %d, oracle %d" where name p a b
      done)
    port_getters;
  let a = Uib.fingerprint u and b = O.fingerprint o in
  if a <> b then QCheck.Test.fail_reportf "%s: fingerprint %#x, oracle %#x" where a b

let valid fid = fid >= 0 && fid < Wire.flow_space

let touched ops =
  List.filter_map
    (function
      | Set (_, fid, _) | Get (_, fid) | Stage (fid, _) | Withdraw (fid, _) when valid fid ->
        Some fid
      | _ -> None)
    ops
  |> List.sort_uniq compare

let run_ops (ports, ops) =
  let u = Uib.create ~ports and o = O.create ~ports in
  let fids = touched ops and ports = max 1 ports in
  List.iteri
    (fun i op ->
      let a, b = apply u o op in
      if a <> b then
        QCheck.Test.fail_reportf "op %d (%s): %s, oracle %s" i (print_op op) (show a) (show b);
      agree ~where:(Printf.sprintf "after op %d (%s)" i (print_op op)) u o ~fids ~ports)
    ops;
  agree ~where:"at the end" u o ~fids:(List.init Wire.flow_space Fun.id) ~ports;
  true

let prop_uib_matches_oracle =
  QCheck.Test.make ~name:"packed UIB = per-register oracle" ~count:300
    (QCheck.make
       ~print:(fun (ports, ops) ->
         Printf.sprintf "ports=%d\n%s" ports (String.concat "\n" (List.map print_op ops)))
       QCheck.Gen.(pair (int_bound 5) (list_size (int_range 1 60) op_gen)))
    run_ops

(* One switch's UIB with eight ports is one 48 KB byte store plus a
   small port array; word-per-cell registers took about four times as
   many words.  A bound a little above the packed size keeps it so. *)
let test_footprint () =
  let words = Obj.reachable_words (Obj.repr (Uib.create ~ports:8)) in
  if words >= 7_000 then
    Alcotest.failf "Uib.create ~ports:8 reaches %d words; the bound is 7000" words

let suite =
  [
    QCheck_alcotest.to_alcotest prop_uib_matches_oracle;
    Alcotest.test_case "UIB footprint bound" `Quick test_footprint;
  ]
