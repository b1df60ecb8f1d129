type t = { reg_name : string; cell_width : int; cells : int array }

let create ~name ~width ~size =
  if width < 1 || width > 62 then invalid_arg "Register.create: width outside [1, 62]";
  if size < 1 then invalid_arg "Register.create: size must be positive";
  { reg_name = name; cell_width = width; cells = Array.make size 0 }

(* Register R/W is the hottest p4rt path (the UIB does dozens per
   packet): one bounds check and one array access, with the message
   built only on the cold out-of-range path. *)
let[@inline never] out_of_range t i op =
  invalid_arg
    (Printf.sprintf "Register.%s(%s): index %d outside [0, %d)" op t.reg_name i
       (Array.length t.cells))

let read t i =
  if i < 0 || i >= Array.length t.cells then out_of_range t i "read";
  Array.unsafe_get t.cells i

let write t i v =
  if i < 0 || i >= Array.length t.cells then out_of_range t i "write";
  Array.unsafe_set t.cells i (v land ((1 lsl t.cell_width) - 1))

let clear t = Array.fill t.cells 0 (Array.length t.cells) 0
let dump t = Array.copy t.cells
