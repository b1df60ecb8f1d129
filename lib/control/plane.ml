(* Only perfbench/episode.ml uses this alias: it calls [Control.Plane.*]
   on [World.plane], the world's one controller. *)
include P4update.Controller
