type node_view = {
  ver_cur : int;
  dist_cur : int;
  ver_prev : int;
  dist_prev : int;
  counter : int;
  last_dual : bool;
  uim_version : int;
  uim_distance : int;
}

type unm_view = {
  u_ver_new : int;
  u_ver_old : int;
  u_dist_new : int;
  u_dist_old : int;
  u_counter : int;
  u_dual : bool;
  u_committed : bool;
}

type commit_source =
  | Via_sl
  | Via_dl_inside
  | Via_dl_gateway

type decision =
  | Commit of commit_source
  | Inherit_and_pass
  | Wait_for_uim
  | Reject_stale
  | Reject_distance
  | Ignore

(* Algorithm 1.  V(v) is the version of the highest indication; the
   distance check D_n(v) = D_n(UNM) + 1 guarantees the notifying parent is
   one hop closer to the egress. *)
let sl_verify node unm =
  if unm.u_ver_new = node.uim_version then
    if node.ver_cur >= unm.u_ver_new then Ignore (* already at this version *)
    else if node.uim_distance = unm.u_dist_new + 1 then Commit Via_sl
    else Reject_distance
  else if unm.u_ver_new > node.uim_version then Wait_for_uim
  else Reject_stale

(* Algorithm 2 (dual-layer).  Three positive branches:
   - nodes lagging more than one version behind (inside a segment): update
     early, inheriting the proposal's old-distance label;
   - nodes exactly one version behind (gateways): join the proposer's
     segment only when their own old-distance label is larger, i.e. the
     join strictly decreases the distance to the destination;
   - nodes already at the new version: pure label carriers that adopt a
     strictly better label (or break ties with the hop counter) and pass
     the proposal upstream. *)
let dl_verify ?(consecutive = false) ?(label_guard = true) node unm =
  (* Appendix C: committed parents are always safe to follow — the set of
     nodes committed at the new version grows from the egress outward, so
     pointing at one can neither blackhole nor loop. *)
  let committed_parent_ok =
    consecutive && unm.u_committed && node.uim_distance = unm.u_dist_new + 1
  in
  if unm.u_ver_new > node.uim_version then Wait_for_uim
  else if unm.u_ver_new < node.uim_version then Reject_stale
  else if node.ver_cur + 1 < unm.u_ver_new then
    (* Node inside a segment.  A truly fresh node (no rules) may join on
       the distance check alone; a node that still carries a live rule —
       it lags several versions because intermediate updates never reached
       it — must additionally join only strictly closer segments, exactly
       like a gateway, or the proposer's still-old forwarding could route
       back through it (loop found by the fault-injection property
       tests; the paper's Alg. 2 assumes such nodes are rule-less). *)
    if node.uim_distance <> unm.u_dist_new + 1 then Reject_distance
    else if
      (not label_guard) || node.ver_cur = 0
      || node.dist_cur > unm.u_dist_old
      || committed_parent_ok
    then Commit Via_dl_inside
    else Ignore
  else if node.ver_cur + 1 = unm.u_ver_new && unm.u_ver_new = unm.u_ver_old + 1 then
    (* Gateway at the previous version: join the segment if it brings the
       node strictly closer (smaller old-distance label), and only if its
       previous update was not itself dual-layer (Thm. 4 restriction). *)
    if node.uim_distance <> unm.u_dist_new + 1 then Reject_distance
    else if not node.last_dual then
      (* The gateway's segment id is its distance in the still-active old
         configuration, i.e. its committed distance. *)
      if node.dist_cur > unm.u_dist_old || committed_parent_ok then Commit Via_dl_gateway
      else Ignore
    else if committed_parent_ok then
      (* Previous update was dual-layer: labels are exhausted; only a
         committed parent may be followed (Appendix C). *)
      Commit Via_dl_gateway
    else Ignore
  else if node.ver_cur = unm.u_ver_new && node.ver_prev = unm.u_ver_old then
    (* Already updated: pass better labels upstream. *)
    if node.dist_cur = node.uim_distance && node.dist_cur = unm.u_dist_new + 1 then
      if
        node.dist_prev > unm.u_dist_old
        || (node.dist_prev = unm.u_dist_old && node.counter > unm.u_counter)
      then Inherit_and_pass
      else Ignore
    else Ignore
  else Ignore

let decision_to_string = function
  | Commit Via_sl -> "commit-sl"
  | Commit Via_dl_inside -> "commit-dl-inside"
  | Commit Via_dl_gateway -> "commit-dl-gateway"
  | Inherit_and_pass -> "inherit-and-pass"
  | Wait_for_uim -> "wait-for-uim"
  | Reject_stale -> "reject-stale"
  | Reject_distance -> "reject-distance"
  | Ignore -> "ignore"
