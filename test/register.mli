(** Register arrays: the stateful objects of the P4 data plane.

    Registers persist across packets (unlike metadata) and can be written
    from both the control and the data plane (§2.1).  Every cell is a
    width-bounded unsigned value.  The cells of the per-register UIB
    oracle ([Uib_oracle]). *)

type t

(** [create ~name ~width ~size] makes an all-zero register array. *)
val create : name:string -> width:int -> size:int -> t

(** [read reg i] / [write reg i v]: cell access; [v] is truncated to the
    register width.  Raise [Invalid_argument] on out-of-range indices. *)
val read : t -> int -> int
val write : t -> int -> int -> unit

(** Reset every cell to zero. *)
val clear : t -> unit

(** Snapshot of all cells (for inspection and tests). *)
val dump : t -> int array
