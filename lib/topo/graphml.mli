(** Minimal GraphML reader for Internet Topology Zoo files.

    The paper takes AttMpls and Chinanet from the Topology Zoo [48],
    which distributes topologies as GraphML.  This reader understands the
    subset those files use: [<key>] declarations mapping attribute names
    to key ids, [<node>] elements with [<data>] children (labels and
    geographic coordinates), and [<edge>] elements.

    Latitude/Longitude data, when present, yields the same geographic
    link latencies as the built-in catalogue (distance / 2·10^5 km/s);
    edges without coordinates fall back to [default_latency_ms].  A
    coordinate that does not parse, is not finite, or lies outside
    \[-90, 90\] latitude / \[-180, 180\] longitude counts as absent. *)

type node = {
  gn_id : string;
  gn_label : string;
  gn_coords : (float * float) option;  (** latitude, longitude *)
}

type parsed = {
  g_nodes : node list;
  g_edges : (string * string) list;  (** source id, target id *)
}

exception Parse_error of string

(** [parse_string s] reads a GraphML document.  Raises {!Parse_error} on
    malformed input. *)
val parse_string : string -> parsed

val parse_file : string -> parsed

(** [to_topology ?default_latency_ms ?capacity ~name parsed] builds a
    {!Topologies.t}: nodes are numbered in document order, duplicate and
    self-loop edges are dropped, the controller is placed at the
    centroid.  Raises [Invalid_argument] if the graph is empty or
    disconnected. *)
val to_topology :
  ?default_latency_ms:float ->
  ?capacity:float ->
  name:string ->
  parsed ->
  Topologies.t
