(* Hostile run flags (part of [dune runtest]): each argv below must make
   the CLI exit with the given code, within a wall-clock limit, without
   simulating anything.  124 is cmdliner's usage error — a value no run
   can use, a flag the run would ignore, or a subcommand name that is
   only a prefix of a real one (such as the retired [top] and
   [traffic]); 2 is a workload the run loop itself refuses, or a GraphML
   file [import] cannot use, or an intent file the parser refuses (an
   ECMP width above the flow space once ran Yen's algorithm for
   minutes).  Unchecked, such values reach the run loop as
   uncaught exceptions (125), and a zero constant-rate probe gap would
   re-arm its injectors at one simulated instant forever; the limit
   turns such a hang into a failure.

   Usage: cli_check.exe PATH-TO-p4update_cli.exe *)

(* A one-line intent program asking for a million ECMP members. *)
let wide_intent =
  let path = Filename.temp_file "wide" ".intent" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "flow wide 0 -> 7 ecmp 1000000 prio 0 demand 1\n");
  at_exit (fun () -> Sys.remove path);
  path

let cases =
  [
    ([ "scale"; "--flows"; "0" ], 124);
    ([ "scale"; "--burst"; "0" ], 124);
    ([ "scale"; "--arrival-mean"; "0" ], 124);
    ([ "scale"; "--audit"; "--gap-mean"; "0" ], 124);
    ([ "scale"; "--audit"; "--constant-rate"; "--gap-mean"; "0" ], 124);
    ([ "scale"; "--gap-mean"; "2" ], 124);
    ([ "scale"; "--source"; "intent"; "--churn"; "0.1" ], 124);
    ([ "scale"; "--tick-ms"; "0" ], 124);
    ([ "soak"; "--cycles"; "0" ], 124);
    ([ "soak"; "--cycle-ms"; "0" ], 124);
    ([ "chaos"; "--series-out"; "series.jsonl" ], 124);
    ([ "chaos"; "--seed"; "1"; "--runs"; "3" ], 124);
    ([ "chaos"; "--runs=-1" ], 124);
    ([ "single"; "--runs=-1" ], 124);
    ([ "multi"; "--runs=-1" ], 124);
    ([ "fig"; "--id"; "2"; "--seed"; "3" ], 124);
    ([ "fig"; "--id"; "2"; "--runs"; "5" ], 124);
    ([ "fig"; "--id"; "7c"; "--phases"; "--runs"; "5" ], 124);
    ([ "fig"; "--id"; "7a"; "--runs=-1" ], 124);
    ([ "fig"; "--id"; "9z" ], 124);
    ([ "mc"; "--scenario"; "bogus" ], 124);
    ([ "scale"; "--flows"; "5000"; "--updates"; "10" ], 2);
    ([ "import"; "/dev/null" ], 2);
    ([ "intent"; "compile"; "--topo"; "attmpls"; "-f"; wide_intent ], 2);
    ([ "top" ], 124);
    ([ "traffic" ], 124);
  ]

let limit_s = 30.0

(* The exit code of [cli argv], or [None] if it outlived [limit_s] (it is
   then killed). *)
let run cli argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: argv)) null null null in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. limit_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | 0, _ ->
      Unix.sleepf 0.01;
      wait ()
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (128 + s)
  in
  wait ()

let () =
  let cli = Sys.argv.(1) in
  let failures =
    List.filter
      (fun (argv, want) ->
        let shown = String.concat " " argv in
        match run cli argv with
        | Some code when code = want -> false
        | Some code ->
          Printf.printf "cli_check: %s exited %d, expected %d\n" shown code want;
          true
        | None ->
          Printf.printf "cli_check: %s still running after %.0f s\n" shown limit_s;
          true)
      cases
  in
  if failures <> [] then exit 1
