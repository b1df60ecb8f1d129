(** Benchmark metric rows: the [--json] output of [bench/main.exe].

    A rows file is a flat JSON array of [{"name","unit","value"}]
    objects, one per metric, that trend dashboards ingest. *)

type row = { r_name : string; r_unit : string; r_value : float }

val row : string -> string -> float -> row
(** [row name unit value]. *)

val write : path:string -> row list -> unit
(** Write rows as a JSON array (one line, newline-terminated). *)
