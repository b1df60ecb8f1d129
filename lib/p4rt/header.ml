type schema = {
  name : string;
  field_list : (string * int) list;
  widths : int array;  (* per-field bit width, in definition order *)
  total_bits : int;
  (* Per-field (byte offset within the header, byte width) when every
     field is byte-aligned; [None] for schemas with sub-byte fields.
     [emit]/[extract] take the byte loop exactly when this is [Some]. *)
  byte_layout : (int * int) array option;
}

type inst = {
  schema : schema;
  values : int array;
  valid : bool;
}

let define ~name field_list =
  if field_list = [] then invalid_arg "Header.define: empty field list";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (field, w) ->
      if Hashtbl.mem seen field then
        invalid_arg (Printf.sprintf "Header.define(%s): duplicate field %s" name field);
      Hashtbl.add seen field ();
      if w < 1 || w > 62 then
        invalid_arg (Printf.sprintf "Header.define(%s): field %s width %d" name field w))
    field_list;
  let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 field_list in
  if total_bits mod 8 <> 0 then
    invalid_arg
      (Printf.sprintf "Header.define(%s): total width %d bits not byte aligned" name total_bits);
  let byte_layout =
    if List.for_all (fun (_, w) -> w mod 8 = 0) field_list then begin
      let off = ref 0 in
      Some
        (Array.of_list
           (List.map
              (fun (_, w) ->
                let o = !off in
                off := o + (w / 8);
                (o, w / 8))
              field_list))
    end
    else None
  in
  let widths = Array.of_list (List.map snd field_list) in
  { name; field_list; widths; total_bits; byte_layout }

let schema_name s = s.name
let byte_size s = s.total_bits / 8
let fields s = s.field_list

let make schema =
  { schema; values = Array.make (Array.length schema.widths) 0; valid = true }

let schema_of inst = inst.schema
let is_valid inst = inst.valid
let set_valid inst valid = { inst with valid }

let index schema field =
  let rec find i = function
    | [] -> invalid_arg (Printf.sprintf "Header(%s): unknown field %s" schema.name field)
    | (f, _) :: rest -> if f = field then i else find (i + 1) rest
  in
  find 0 schema.field_list

let[@inline] mask w v = v land ((1 lsl w) - 1)

let get_at inst i = inst.values.(i)

let set_at inst i v =
  let values = Array.copy inst.values in
  values.(i) <- mask inst.schema.widths.(i) v;
  { inst with values }

let of_values schema values =
  if Array.length values <> Array.length schema.widths then
    invalid_arg
      (Printf.sprintf "Header.of_values(%s): %d values for %d fields" schema.name
         (Array.length values) (Array.length schema.widths));
  for i = 0 to Array.length values - 1 do
    values.(i) <- mask schema.widths.(i) values.(i)
  done;
  { schema; values; valid = true }

let values inst = Array.copy inst.values

let get inst field = get_at inst (index inst.schema field)
let set inst field v = set_at inst (index inst.schema field) v

let get_bv inst field =
  let i = index inst.schema field in
  Bitval.make ~width:inst.schema.widths.(i) inst.values.(i)

(* Bit-level MSB-first writer/reader over a bytes buffer, for schemas
   with sub-byte fields. *)

let write_bits buf ~bit_offset ~width v =
  for i = 0 to width - 1 do
    let bit = (v lsr (width - 1 - i)) land 1 in
    let pos = bit_offset + i in
    let byte_index = pos / 8 and bit_in_byte = 7 - (pos mod 8) in
    let current = Char.code (Bytes.get buf byte_index) in
    let updated =
      if bit = 1 then current lor (1 lsl bit_in_byte)
      else current land lnot (1 lsl bit_in_byte)
    in
    Bytes.set buf byte_index (Char.chr (updated land 0xff))
  done

let read_bits buf ~bit_offset ~width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    let pos = bit_offset + i in
    let byte_index = pos / 8 and bit_in_byte = 7 - (pos mod 8) in
    let bit = (Char.code (Bytes.get buf byte_index) lsr bit_in_byte) land 1 in
    v := (!v lsl 1) lor bit
  done;
  !v

(* Byte-aligned MSB-first stores/loads: the same wire image as the bit
   loops, one byte per iteration instead of one bit. *)

let[@inline] write_bytes_be buf ~pos ~nbytes v =
  for b = 0 to nbytes - 1 do
    Bytes.unsafe_set buf (pos + b)
      (Char.unsafe_chr ((v lsr (8 * (nbytes - 1 - b))) land 0xff))
  done

let[@inline] read_bytes_be buf ~pos ~nbytes =
  let v = ref 0 in
  for b = 0 to nbytes - 1 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get buf (pos + b))
  done;
  !v

(* [emit]/[extract] are plain loops over the schema's layout: no closure
   per call, one allocation (the instance) per extraction. *)

let emit inst buf offset =
  if not inst.valid then offset
  else begin
    let schema = inst.schema in
    if Bytes.length buf < offset + byte_size schema then
      invalid_arg (Printf.sprintf "Header.emit(%s): buffer too short" schema.name);
    (match schema.byte_layout with
    | Some layout ->
      for i = 0 to Array.length layout - 1 do
        let o, nbytes = layout.(i) in
        write_bytes_be buf ~pos:(offset + o) ~nbytes inst.values.(i)
      done
    | None ->
      let bit = ref (offset * 8) in
      for i = 0 to Array.length schema.widths - 1 do
        let w = schema.widths.(i) in
        write_bits buf ~bit_offset:!bit ~width:w inst.values.(i);
        bit := !bit + w
      done);
    offset + byte_size schema
  end

let read schema buf offset =
  if Bytes.length buf < offset + byte_size schema then
    invalid_arg (Printf.sprintf "Header.extract(%s): buffer too short" schema.name);
  let values = Array.make (Array.length schema.widths) 0 in
  (match schema.byte_layout with
  | Some layout ->
    for i = 0 to Array.length layout - 1 do
      let o, nbytes = layout.(i) in
      values.(i) <- read_bytes_be buf ~pos:(offset + o) ~nbytes
    done
  | None ->
    let bit = ref (offset * 8) in
    for i = 0 to Array.length schema.widths - 1 do
      let w = schema.widths.(i) in
      values.(i) <- read_bits buf ~bit_offset:!bit ~width:w;
      bit := !bit + w
    done);
  { schema; values; valid = true }

let extract schema buf offset = (read schema buf offset, offset + byte_size schema)

let pp fmt inst =
  Format.fprintf fmt "@[<h>%s{" inst.schema.name;
  List.iteri
    (fun i (f, _) ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%s=%d" f inst.values.(i))
    inst.schema.field_list;
  Format.fprintf fmt "}%s@]" (if inst.valid then "" else " (invalid)")
