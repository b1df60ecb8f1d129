type t = {
  headers : Header.inst list;
  payload : Bytes.t;
}

let make ?(payload = Bytes.empty) headers = { headers; payload }

(* Headers are matched by schema identity: a schema is a value defined
   once, so per-frame lookups compare one pointer and never a name.  The
   list walks are top-level functions so that a lookup allocates no
   closure. *)
let[@inline] is schema h = Header.schema_of h == schema

let rec find_valid schema = function
  | [] -> None
  | h :: rest -> if Header.is_valid h && is schema h then Some h else find_valid schema rest

let rec mem schema = function [] -> false | h :: rest -> is schema h || mem schema rest

let rec replace schema inst = function
  | [] -> []
  | h :: rest -> if is schema h then inst :: rest else h :: replace schema inst rest

let header pkt schema = find_valid schema pkt.headers

let with_header pkt inst =
  let schema = Header.schema_of inst in
  if mem schema pkt.headers then { pkt with headers = replace schema inst pkt.headers }
  else { pkt with headers = pkt.headers @ [ inst ] }

let rec size_of acc = function
  | [] -> acc
  | h :: rest ->
    size_of (if Header.is_valid h then acc + Header.byte_size (Header.schema_of h) else acc) rest

let wire_size pkt = size_of (Bytes.length pkt.payload) pkt.headers

let rec emit_all buf off = function
  | [] -> off
  | h :: rest -> emit_all buf (Header.emit h buf off) rest

let serialize pkt =
  (* Every byte is written below: headers cover their whole width, the
     payload the rest. *)
  let buf = Bytes.create (wire_size pkt) in
  let offset = emit_all buf 0 pkt.headers in
  Bytes.blit pkt.payload 0 buf offset (Bytes.length pkt.payload);
  buf

let pp fmt pkt =
  Format.fprintf fmt "@[<v>packet (%d bytes):@," (wire_size pkt);
  List.iter (fun h -> Format.fprintf fmt "  %a@," Header.pp h) pkt.headers;
  Format.fprintf fmt "@]"
