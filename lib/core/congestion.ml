type verdict =
  | Proceed
  | Defer_capacity
  | Defer_priority

let is_real_port port = port <> Wire.port_none && port <> Wire.port_local

let check uib ~flow_id ~new_port ~size ~priority_gate ~high_priority ~other_high_waiters =
  let old_port = Uib.egress_port uib flow_id in
  if not (is_real_port new_port) then Proceed
  else if new_port = old_port && size <= Uib.flow_size uib flow_id then
    (* The flow already holds at least [size] on this port (§A.2). *)
    Proceed
  else if Uib.remaining uib new_port < size then Defer_capacity
  else if priority_gate && (not high_priority) && other_high_waiters > 0 then
    Defer_priority
  else Proceed

let apply_move uib ~old_port ~new_port ~old_size ~new_size =
  if is_real_port new_port then Uib.reserve uib new_port new_size;
  if is_real_port old_port then Uib.release uib old_port old_size

let note_contention uib ~port = if is_real_port port then Uib.add_waiter uib port
let clear_contention uib ~port = if is_real_port port then Uib.remove_waiter uib port

let is_promoted uib ~flow_id =
  let current = Uib.egress_port uib flow_id in
  is_real_port current && Uib.waiters uib current > 0
