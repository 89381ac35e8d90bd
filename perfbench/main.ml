(* Command line of the repository benchmark:

     main.exe --workload sweep|cold|iterate|serve --seed N --seconds S
              --trace 0|1 [--hlsopt PATH] [--dir DIR]

   Prints a human-readable summary, then as its last line one JSON
   object with the run's correctness, op counts and metrics: the
   end-to-end metrics, or with --trace 1 the per-layer ones.  Exits 1
   when any op failed or its answer did not pass the correctness
   gate. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let hlsopt = ref "_build/default/bin/hlsopt.exe" and dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W sweep, cold, iterate or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
      ("--hlsopt", Arg.Set_string hlsopt, "PATH the hlsopt binary (serve)");
      ("--dir", Arg.Set_string dir, "DIR sockets, logs and trace files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match Perfbench.Workload.of_string !workload with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some w ->
      (* a daemon that dies mid-request must fail the op, not the run *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
      let o =
        Perfbench.Bench.run
          { Perfbench.Bench.workload = w; seed = !seed; seconds = !seconds;
            trace = !trace <> 0; hlsopt = !hlsopt; dir = !dir }
      in
      print_endline (Perfbench.Bench.result_line o);
      exit (if o.Perfbench.Bench.correct then 0 else 1)
