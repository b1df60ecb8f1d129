(* The list-based probe classifier [Harness.Traffic] used before its
   allocation-free rewrite, kept verbatim (only its inputs are unpacked
   from the auditor's packet and flow records) as the oracle of the
   differential property in test_traffic.ml. *)

open Harness.Traffic

let edge a b = (a lsl 20) lor b

let rec edges_of_path = function
  | a :: (b :: _ as rest) -> edge a b :: edges_of_path rest
  | _ -> []

let rec mem_edge e = function [] -> false | x :: rest -> Int.equal x e || mem_edge e rest

(* Does a consistent version assignment exist for the edge sequence,
   using only versions <= cap?  Forward reachability over the per-flow
   version history: exact. *)
let feasible_trajectory history ~cap edges =
  let allowed e =
    List.filter (fun r -> r.vr_version <= cap && mem_edge e r.vr_edges) history
  in
  let step reach e =
    List.filter
      (fun r ->
        List.exists (fun p -> r.vr_version >= p.vr_version || p.vr_dl) reach)
      (allowed e)
  in
  match edges with
  | [] -> true
  | e :: rest ->
    let rec go reach = function
      | [] -> reach <> []
      | e :: more -> ( match step reach e with [] -> false | r -> go r more)
    in
    go (allowed e) rest

let classify ~history ~cap ~dst ~delivered_at hops =
  let hops = List.rev hops in
  let edges = edges_of_path hops in
  let distinct_edges = List.sort_uniq Int.compare edges in
  if List.length distinct_edges < List.length edges then Loop
  else if delivered_at < 0 then Blackhole
  else if delivered_at <> dst then Mixed (* misdelivered *)
  else if feasible_trajectory history ~cap edges then Old_path
  else if feasible_trajectory history ~cap:max_int edges then New_path
  else Mixed
