(* Minimal JSON value type with a deterministic compact printer and a
   recursive-descent parser.  Kept dependency-free on purpose: the trace
   exporters must produce byte-identical output for same-seed runs, so we
   control float formatting ourselves instead of relying on an external
   printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Fixed-precision float formatting keeps output deterministic and avoids
   locale / shortest-repr surprises.  Trailing zeros are trimmed so 3.0
   prints as "3.0" rather than "3.000000". *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.6f" f in
    let n = String.length s in
    let rec last_keep i = if i > 0 && s.[i] = '0' && s.[i - 1] <> '.' then last_keep (i - 1) else i in
    String.sub s 0 (last_keep (n - 1) + 1)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f then Buffer.add_string buf "null"
    else Buffer.add_string buf (float_repr f)
  | Str s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parser --- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    c.pos <- c.pos + 1;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then (
    c.pos <- c.pos + n;
    v)
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; c.pos <- c.pos + 1
      | Some '\\' -> Buffer.add_char buf '\\'; c.pos <- c.pos + 1
      | Some '/' -> Buffer.add_char buf '/'; c.pos <- c.pos + 1
      | Some 'n' -> Buffer.add_char buf '\n'; c.pos <- c.pos + 1
      | Some 'r' -> Buffer.add_char buf '\r'; c.pos <- c.pos + 1
      | Some 't' -> Buffer.add_char buf '\t'; c.pos <- c.pos + 1
      | Some 'b' -> Buffer.add_char buf '\b'; c.pos <- c.pos + 1
      | Some 'f' -> Buffer.add_char buf '\012'; c.pos <- c.pos + 1
      | Some 'u' ->
        c.pos <- c.pos + 1;
        if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
        in
        c.pos <- c.pos + 4;
        (* Enough for the control chars we emit; non-BMP not needed. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then (
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
        else (
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
      | _ -> fail c "bad escape");
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek c with Some ch when is_num_char ch -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  let float_or_fail () =
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "bad number"
  in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  then float_or_fail ()
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> float_or_fail ()

(* Nesting bound: a recursive-descent parser otherwise turns adversarial
   input like "[[[[..." into a stack overflow, which is not a catchable
   [Parse_error].  512 is far beyond anything the exporters emit. *)
let max_depth = 512

let rec parse_value c ~depth =
  if depth > max_depth then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then (
      c.pos <- c.pos + 1;
      Obj [])
    else
      let rec members acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c ~depth:(depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (members [])
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then (
      c.pos <- c.pos + 1;
      List [])
    else
      let rec elems acc =
        let v = parse_value c ~depth:(depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elems (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (elems [])
  | Some '"' ->
    c.pos <- c.pos + 1;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c ~depth:0 in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

(* --- accessors (used by trace validation) --- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
