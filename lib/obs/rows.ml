(* Benchmark metric rows: the flat {"name","unit","value"} array the
   bench writes with --json. *)

type row = { r_name : string; r_unit : string; r_value : float }

let row name unit_ value = { r_name = name; r_unit = unit_; r_value = value }

let to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.Str r.r_name);
             ("unit", Json.Str r.r_unit);
             ("value", Json.Float r.r_value);
           ])
       rows)

let write ~path rows =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json rows));
  output_char oc '\n';
  close_out oc
