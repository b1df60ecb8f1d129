(* Reference kernels: a fixed amount of stdlib-only work, timed in the
   episode process before its set-up and after its loop.

   The host this benchmark runs on is shared, and its speed drifts by up
   to ~1.6x over seconds to minutes as other tenants come and go.  The
   kernels run the same kinds of operations as the simulator (minor-heap
   allocation churn, hash tables, short lists, small byte strings), so
   they slow down with the host; run.py rescales each episode's wall time
   by their duration to report figures at a fixed host speed.  They use
   nothing from the repository, so no change to it can move them. *)

let now = Dessim.Wallclock.now_s

let churn () =
  let rng = Random.State.make [| 7 |] in
  let a = Array.make 1024 [] in
  let acc = ref 0.0 in
  for i = 1 to 200_000 do
    let k = Random.State.int rng 1024 in
    let r = (float_of_int i *. 1.5, k, Some i) in
    a.(k) <- (match a.(k) with _ :: _ :: _ :: _ -> [ r ] | l -> r :: l);
    match a.(k) with (f, _, _) :: _ -> acc := !acc +. f | [] -> ()
  done;
  !acc

let tables () =
  let rng = Random.State.make [| 9 |] in
  let h = Hashtbl.create 512 in
  let acc = ref 0 in
  for i = 1 to 100_000 do
    let k = Random.State.int rng 1000 in
    Hashtbl.replace h k (Bytes.make 22 (Char.chr (i land 255)));
    (match Hashtbl.find_opt h (k lxor 1) with Some b -> acc := !acc + Bytes.length b | None -> ());
    acc := !acc + List.fold_left ( + ) 0 (List.init 4 (fun j -> j + i))
  done;
  float_of_int !acc

let records () =
  let rng = Random.State.make [| 11 |] in
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h i (Array.make 8 i)
  done;
  let acc = ref 0 in
  for i = 1 to 75_000 do
    let k = Random.State.int rng 4096 in
    let a = Hashtbl.find h k in
    let l = List.init 12 (fun j -> (j + i, a.(j land 7))) in
    acc := !acc + List.fold_left (fun s (x, y) -> s + x + y) 0 l;
    if i land 15 = 0 then Hashtbl.replace h k (Array.make 8 i)
  done;
  float_of_int !acc

(* Wall seconds of one pass over the three kernels. *)
let run () =
  let t0 = now () in
  List.iter (fun k -> ignore (Sys.opaque_identity (k ()))) [ churn; tables; records ];
  now () -. t0
