(* One benchmark episode as a process:

     bench.exe WORKLOAD POPULATION SEED TRACE

   runs the workload once, its initial flow population drawn from
   POPULATION and everything else from SEED (TRACE = 1 adds the
   outside-in layer timing), and prints one JSON object.  perfbench/run.py repeats
   episodes, checks them and aggregates; a fresh process per episode
   keeps each episode's peak heap its own. *)

let rec json = function
  | Episode.I i -> string_of_int i
  | Episode.F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Episode.L fs -> "[" ^ String.concat "," (List.map (fun f -> json (Episode.F f)) fs) ^ "]"
  | Episode.O kvs ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json v)) kvs) ^ "}"

let () =
  match Sys.argv with
  | [| _; name; population; seed; ("0" | "1") as trace |] -> (
    match (Workloads.find name, int_of_string_opt population, int_of_string_opt seed) with
    | Some wl, Some population, Some seed ->
      (* The first pass also pays the fresh process's heap growth. *)
      ignore (Reference.run ());
      let before = Reference.run () in
      let fields = Episode.run wl ~population ~seed ~traced:(trace = "1") in
      (* The episode's heap is garbage now; collect it so the second pass
         runs against the same near-empty heap as the first. *)
      Gc.full_major ();
      let after = Reference.run () in
      print_endline (json (Episode.O (fields @ [ ("reference_s", Episode.L [ before; after ]) ])))
    | _ ->
      prerr_endline "bench.exe: unknown workload or non-integer population or seed";
      exit 2)
  | _ ->
    prerr_endline "usage: bench.exe WORKLOAD POPULATION SEED (0|1)";
    exit 2
