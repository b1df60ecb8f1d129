(* Lowering compiled intent diffs onto the P4Update controller.

   Each ECMP member of a flow intent is one P4Update flow.  The pair-hash
   id derivation in [Controller.register_flow] would collide members of
   the same (src, dst) pair, so the bridge owns a deterministic allocator:
   member [j] starts probing at [hash(src, dst) + 61 j] inside
   [Wire.flow_space] and takes the first unused slot.  Ids of removed
   flows are tombstoned, never reused — re-registering a retired id at
   version 1 would roll the data plane's version floor backwards. *)

type member_key = string * int

type t = {
  ids : (member_key, int) Hashtbl.t;
  used : (int, unit) Hashtbl.t;
  installed : (int, int list) Hashtbl.t; (* id -> path last handed to the plane *)
  bound : (string, int) Hashtbl.t; (* flow -> member ids bound so far *)
  mutable installs : int;
  mutable parked : int; (* members left on their stale path (unroutable) *)
}

let create () =
  {
    ids = Hashtbl.create 64;
    used = Hashtbl.create 64;
    installed = Hashtbl.create 64;
    bound = Hashtbl.create 64;
    installs = 0;
    parked = 0;
  }

let reserve t id = Hashtbl.replace t.used id ()

let installs t = t.installs
let parked t = t.parked

let space = P4update.Wire.flow_space

let alloc t ~name ~src ~dst ~index =
  match Hashtbl.find_opt t.ids (name, index) with
  | Some id -> id
  | None ->
    let base = Topo.Traffic.flow_id_of_pair ~src ~dst in
    let start = (base + (61 * index)) land (space - 1) in
    let rec probe i =
      if i >= space then failwith "Intent.Bridge: flow space exhausted";
      let id = (start + i) land (space - 1) in
      if Hashtbl.mem t.used id then probe (i + 1) else id
    in
    let id = probe 0 in
    Hashtbl.replace t.used id ();
    Hashtbl.replace t.ids (name, index) id;
    Hashtbl.replace t.bound name
      (max (index + 1) (Option.value (Hashtbl.find_opt t.bound name) ~default:0));
    id

(* Installed member size in the scale engine's centi-unit convention
   (wl_flow_size = 1): demand gates per-flow path feasibility in the
   compiler against graph capacities, but members must not oversubscribe
   UIB port reservations in aggregate — the compiler does not bin-pack
   concurrent demand (a ROADMAP extension), so sizes stay small the same
   way Scale's Poisson flows do. *)
let size_of_demand demand = demand

let lower t ~program ~(diff : Compiler.diff) ~install ~retire =
  let requests = ref [] in
  List.iter
    (fun (ch : Compiler.change) ->
      let name = ch.Compiler.ch_name in
      match Lang.find program name with
      | None ->
        (* Removed from the program: retire every bound member; ids stay
           tombstoned in [used]. *)
        let n = Option.value (Hashtbl.find_opt t.bound name) ~default:0 in
        for j = 0 to n - 1 do
          match Hashtbl.find_opt t.ids (name, j) with
          | Some id ->
            if Hashtbl.mem t.installed id then begin
              Hashtbl.remove t.installed id;
              retire ~flow_id:id
            end
          | None -> ()
        done;
        Hashtbl.remove t.bound name
      | Some fi ->
        let members = Array.of_list ch.Compiler.ch_new in
        let n_bound = Option.value (Hashtbl.find_opt t.bound name) ~default:0 in
        let width = max (Array.length members) n_bound in
        for j = 0 to width - 1 do
          let target = if j < Array.length members then Some members.(j) else None in
          let id_opt = Hashtbl.find_opt t.ids (name, j) in
          match (target, id_opt) with
          | Some path, None ->
            let id =
              alloc t ~name ~src:fi.Lang.fi_src ~dst:fi.Lang.fi_dst ~index:j
            in
            Hashtbl.replace t.installed id path;
            t.installs <- t.installs + 1;
            install ~flow_id:id ~src:fi.Lang.fi_src ~dst:fi.Lang.fi_dst
              ~size:(size_of_demand fi.Lang.fi_demand) ~path
          | Some path, Some id ->
            if Hashtbl.find_opt t.installed id <> Some path then begin
              Hashtbl.replace t.installed id path;
              requests := (id, path) :: !requests
            end
          | None, Some _ ->
            (* Member lost its path: park it on the last installed one
               (a drained link still forwards; real failures are the
               §11 recovery plane's business, not the bridge's). *)
            t.parked <- t.parked + 1
          | None, None -> ()
        done)
    diff.Compiler.d_changes;
  List.rev !requests
