(* Named counter registry: a flat name -> counter table.  Lookup by name
   is idempotent ([counter r "x"] twice returns the same counter), and hot
   paths are expected to hoist the counter out of the loop — incrementing
   a counter handle is a single field mutation.  It keeps counters only:
   each one has a reader outside this module. *)

type counter = { mutable value : int }

type t = { table : (string, counter) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some c -> c
  | None ->
    let c = { value = 0 } in
    Hashtbl.replace t.table name c;
    c

let incr c = c.value <- c.value + 1
let count c = c.value

let get_count t name =
  match Hashtbl.find_opt t.table name with Some c -> c.value | None -> 0
