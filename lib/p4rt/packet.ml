type t = {
  headers : Header.inst list;
  payload : Bytes.t;
}

let make ?(payload = Bytes.empty) headers = { headers; payload }

(* Headers are matched by schema identity: a schema is a value defined
   once, so a lookup compares one pointer and never a name. *)
let rec find schema = function
  | [] -> None
  | h :: rest -> if Header.schema_of h == schema then Some h else find schema rest

let header pkt schema = find schema pkt.headers

let rec size_of acc = function
  | [] -> acc
  | h :: rest -> size_of (acc + Header.byte_size (Header.schema_of h)) rest

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
