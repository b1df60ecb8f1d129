(** Diff-to-update bridge: lowers compiler diffs onto the P4Update
    controller, so one intent event (e.g. a link drain) becomes one
    correlated burst of consistent updates through the existing
    verify/audit planes.

    The bridge owns flow identity for intent members: each ECMP member
    of a flow intent is one P4Update flow, with a deterministic id
    allocated inside [Wire.flow_space] (pair hash + member offset,
    linear probing over a used-set).  Ids of removed flows are
    tombstoned and never reused, so a retired id can never reappear at
    version 1 under a data plane that already saw higher versions.

    The bridge tracks the last path it handed to the data plane per
    member; a member whose flow became unroutable is "parked" on that
    path (a drained link still forwards — real failures are handled by
    the §11 recovery plane) and re-converges on the next diff that
    touches its flow. *)

type t

val create : unit -> t

(** Mark a flow id as taken (pre-existing, non-intent flows). *)
val reserve : t -> int -> unit

(** [lower t ~program ~diff ~install ~retire] walks the diff's changes
    in burst (priority) order and, per member: calls [install] for
    members appearing for the first time (version-1 registration +
    initial data-plane state), calls [retire] for members of flows
    removed from [program], parks members with no target path, and
    accumulates an [(id, new_path)] update request for members whose
    path changed.  Returns the requests in burst order, ready for
    {!P4update.Controller.prepare_batch}.  Mutates bridge bookkeeping;
    callers must execute the returned requests. *)
val lower :
  t ->
  program:Lang.t ->
  diff:Compiler.diff ->
  install:
    (flow_id:int -> src:int -> dst:int -> size:int -> path:int list -> unit) ->
  retire:(flow_id:int -> unit) ->
  (int * int list) list

val installs : t -> int

(** Members currently left on a stale path because their flow lost all
    routes. *)
val parked : t -> int
