(* hlsopt — command-line driver for the operation-fragmentation HLS flow.

   Every data subcommand is a thin client of Hls_api: it builds an
   Api.Request, executes it — in-process by default, or on a running
   `hlsopt serve` daemon with --connect — and prints the payload through
   Api.Render.  The CLI, the server and the tests therefore share one
   code path per verb, and `hlsopt report X` output is byte-identical
   whether it ran locally or over the socket.

   Subcommands:
     parse       parse and validate a specification, print its statistics
     optimize    run the presynthesis transformation, print the new spec
     transform   apply a behavioural rewrite recipe, print plan log + graph
     schedule    schedule with a chosen flow and print the cycle assignment
     report      compare the conventional / BLC / optimized flows
     explore     sweep the design space and print its Pareto frontier
     emit-vhdl   print behavioural VHDL, or the gate-level netlist
     emit-verilog  print the gate-level netlist as structural Verilog
     simulate    run one random vector through the gate-level netlist
     iterate     feedback-iterate the schedule: re-time the critical region
     stats       print serving-tier gauges (router fleet or executor)
     serve       run the request daemon (Unix-domain socket or --stdio)
     call        raw NDJSON passthrough to a daemon
     workloads   list the workload catalog (name, kind, tags, defaults)
     list        alias of workloads, first columns only (kept for scripts)
     fuzz        coverage-directed differential fuzzing of the toolchain
     trace-validate  structural checks over a --trace JSON file

   Exit codes (documented in docs/API.md): 0 success, 2 usage error,
   3 infeasible design point, 4 timeout, 5 resource exhaustion,
   6 server overloaded, 7 internal fault. *)

module Api = Hls_api
module Req = Hls_api.Request
module Resp = Hls_api.Response

let usage_die m =
  prerr_endline ("hlsopt: " ^ m);
  exit 2

let or_die = function Ok v -> v | Error m -> usage_die m

(* Build the request's spec: a file is read here and shipped as inline
   source, so the same request works locally and against a daemon that
   has no access to our filesystem. *)
let spec_of ~file ~builtin =
  match (file, builtin) with
  | Some path, None -> (
      match
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | src -> Req.Source src
      | exception Sys_error m -> usage_die m)
  | None, Some name -> Req.Builtin name
  | Some _, Some _ -> usage_die "give either a file or --builtin, not both"
  | None, None -> usage_die "give a specification file or --builtin NAME"

(* A transport failure is the daemon's problem, not the caller's: exit
   through Unavailable (8, retryable) so scripts can tell a dead fleet
   from their own usage errors. *)
let transport_die m =
  prerr_endline ("hlsopt: connect: " ^ m);
  exit (Resp.exit_code (Resp.Unavailable m))

(* Execute a request: in-process through Exec, or on a daemon.  Flow
   errors exit through the taxonomy's code so scripts can tell an
   impossible design point (3) from a tool fault (7). *)
let payload_or_die ?cache connect req =
  let result =
    match connect with
    | Some socket -> (
        match Hls_server.Client.call ~socket req with
        | Ok resp -> resp.Resp.result
        | Error m -> transport_die m)
    | None ->
        let exec = Api.Exec.create ?cache () in
        Fun.protect
          ~finally:(fun () -> Api.Exec.close exec)
          (fun () -> Api.Exec.run exec req)
  in
  match result with
  | Ok p -> p
  | Error e ->
      prerr_endline ("hlsopt: " ^ Resp.error_message e);
      exit (Resp.exit_code e)

open Cmdliner

(* --trace / --metrics ride on every subcommand. *)
let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of this run; load it at \
                 ui.perfetto.dev or chrome://tracing.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print a span/counter/gauge summary on stderr when done.")

let telemetry_term = Term.(const (fun t m -> (t, m)) $ trace_arg $ metrics_arg)

(* Arm the sink per the flags, run the command, export on the way out.
   [arm_metrics] arms metric recording even without --metrics (explore
   needs span totals for its phase-breakdown footer) but prints the
   summary only when asked.  Exporting sits in the [Fun.protect]
   finaliser so a command that exits through the taxonomy still leaves
   its trace behind, which is exactly when one is wanted. *)
let with_telemetry ?(arm_metrics = false) (trace, metrics) f =
  if trace <> None || metrics || arm_metrics then begin
    Hls_telemetry.arm ~trace:(trace <> None) ~metrics:true ();
    Hls_telemetry.name_track "main"
  end;
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
          Hls_telemetry.write_chrome_trace path;
          Printf.eprintf "hlsopt: trace written to %s\n%!" path
      | None -> ());
      if metrics then prerr_string (Hls_telemetry.metrics_summary ()))
    f

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Specification source file.")

let builtin_arg =
  Arg.(value & opt (some string) None & info [ "builtin"; "b" ] ~docv:"NAME"
         ~doc:"Use a built-in workload instead of a file.")

let latency_arg =
  Arg.(value & opt int 3 & info [ "latency"; "l" ] ~docv:"CYCLES"
         ~doc:"Target latency in clock cycles.")

let connect_arg =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"SOCK"
           ~doc:"Execute on a running 'hlsopt serve' daemon at this \
                 Unix-domain socket instead of in-process.")

let parse_cmd =
  let run tel connect file builtin =
    with_telemetry tel @@ fun () ->
    let req = Req.Parse { spec = spec_of ~file ~builtin } in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and validate a specification")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg)

let optimize_cmd =
  let run tel connect file builtin latency vhdl =
    with_telemetry tel @@ fun () ->
    let req =
      Req.Optimize
        {
          spec = spec_of ~file ~builtin;
          latency;
          config = Req.default_config;
          vhdl;
        }
    in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  let vhdl_arg =
    Arg.(value & flag & info [ "vhdl" ] ~doc:"Emit VHDL instead of the \
                                              specification language.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the presynthesis transformation and print the new spec")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ vhdl_arg)

let schedule_cmd =
  let run tel connect file builtin latency flow =
    with_telemetry tel @@ fun () ->
    let flow =
      match Req.flow_of_name flow with
      | Some f -> f
      | None -> usage_die ("unknown flow " ^ flow)
    in
    let req =
      Req.Schedule
        {
          spec = spec_of ~file ~builtin;
          latency;
          flow;
          config = Req.default_config;
        }
    in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  let flow_arg =
    Arg.(value & opt string "optimized"
         & info [ "flow"; "f" ] ~docv:"FLOW"
             ~doc:"Flow: conventional, blc or optimized.")
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Schedule and print the cycle assignment")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ flow_arg)

(* Shared by report and transform: recipe / verify-policy options.  A
   recipe spec is passes joined by ',' or '+' (use '+' where a comma
   would clash with another list, e.g. explore's --recipes axis), a
   preset name, or repeat(...) around either. *)
let transform_doc =
  "Behavioural transformation recipe: passes joined by ',' or '+', a \
   preset (none, cleanup, standard, aggressive) or repeat(...)."

let verify_doc =
  "Equivalence gate on the recipe's passes: off, sampled or every_pass."

let report_cmd =
  let run tel connect file builtin latency transform verify cleanup target_ns =
    with_telemetry tel @@ fun () ->
    let transform =
      if not cleanup then transform
      else if transform = "none" then "cleanup"
      else usage_die "give --transform or the deprecated --cleanup, not both"
    in
    let req =
      Req.Report
        {
          spec = spec_of ~file ~builtin;
          latency;
          config = { Req.default_config with transform; verify };
          target_ns;
        }
    in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  let transform_arg =
    Arg.(value & opt string "none"
         & info [ "transform"; "t" ] ~docv:"RECIPE" ~doc:transform_doc)
  in
  let verify_arg =
    Arg.(value & opt string "off"
         & info [ "verify" ] ~docv:"POLICY" ~doc:verify_doc)
  in
  let cleanup_arg =
    Arg.(value & flag & info [ "cleanup" ]
           ~doc:"Deprecated alias for --transform cleanup.")
  in
  let target_arg =
    Arg.(value & opt (some float) None
         & info [ "target-ns" ] ~docv:"NS"
             ~doc:"Pick the smallest latency meeting this clock period \
                   instead of --latency.")
  in
  Cmd.v (Cmd.info "report" ~doc:"Compare the conventional and optimized flows")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ transform_arg $ verify_arg $ cleanup_arg
          $ target_arg)

let transform_cmd =
  let run tel connect file builtin recipe verify =
    with_telemetry tel @@ fun () ->
    let req =
      Req.Transform { spec = spec_of ~file ~builtin; recipe; verify }
    in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  let recipe_arg =
    Arg.(value & opt string "standard"
         & info [ "recipe"; "r" ] ~docv:"RECIPE" ~doc:transform_doc)
  in
  let verify_arg =
    Arg.(value & opt string "every_pass"
         & info [ "verify" ] ~docv:"POLICY" ~doc:verify_doc)
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Apply a verified behavioural transformation recipe and print \
             the plan log and the rewritten graph")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ recipe_arg $ verify_arg)

(* emit-vhdl and emit-verilog: one Emit request, its format picked by a
   flag. *)
let emit_cmd name ~doc ~flag:flag_name ~flag_doc ~formats:(plain, flagged) =
  let run tel connect file builtin latency set =
    with_telemetry tel @@ fun () ->
    let req =
      Req.Emit
        {
          spec = spec_of ~file ~builtin;
          latency;
          format = (if set then flagged else plain);
          config = Req.default_config;
        }
    in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  let flag_arg = Arg.(value & flag & info [ flag_name ] ~doc:flag_doc) in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ flag_arg)

let emit_vhdl_cmd =
  emit_cmd "emit-vhdl" ~doc:"Print VHDL" ~flag:"netlist"
    ~flag_doc:"Emit the scheduled design as its gate-level structural \
               netlist instead of the behavioural source."
    ~formats:(Req.Vhdl, Req.Vhdl_netlist)

let emit_verilog_cmd =
  emit_cmd "emit-verilog"
    ~doc:"Print the gate-level netlist as structural Verilog"
    ~flag:"testbench"
    ~flag_doc:"Also emit a self-checking testbench with golden vectors."
    ~formats:(Req.Verilog, Req.Verilog_tb)

let simulate_cmd =
  let run tel connect file builtin latency vcd_path seed =
    with_telemetry tel @@ fun () ->
    let req =
      Req.Simulate
        {
          spec = spec_of ~file ~builtin;
          latency;
          seed;
          config = Req.default_config;
          vcd = vcd_path <> None;
        }
    in
    let payload = payload_or_die connect req in
    print_string (Api.Render.to_text payload);
    match (payload, vcd_path) with
    | Resp.Simulated { sim_vcd = Some vcd; _ }, Some path ->
        let oc = open_out path in
        output_string oc vcd;
        close_out oc;
        Format.printf "waveform written to %s@." path
    | _ -> ()
  in
  let vcd_arg =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"FILE" ~doc:"Write a VCD waveform.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the random input vector.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run one random vector through the gate-level netlist")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ vcd_arg $ seed_arg)

let iterate_cmd =
  let run tel connect file builtin latency rounds transform verify =
    with_telemetry tel @@ fun () ->
    let req =
      Req.Iterate
        {
          spec = spec_of ~file ~builtin;
          latency;
          rounds;
          config = { Req.default_config with transform; verify };
        }
    in
    print_string (Api.Render.to_text (payload_or_die connect req))
  in
  let rounds_arg =
    Arg.(value & opt int 8
         & info [ "rounds"; "r" ] ~docv:"N"
             ~doc:"Accepted-round budget of the feedback loop.")
  in
  let transform_arg =
    Arg.(value & opt string "none"
         & info [ "transform"; "t" ] ~docv:"RECIPE" ~doc:transform_doc)
  in
  let verify_arg =
    Arg.(value & opt string "off"
         & info [ "verify" ] ~docv:"POLICY" ~doc:verify_doc)
  in
  Cmd.v
    (Cmd.info "iterate"
       ~doc:"Schedule, then feedback-iterate: extract the critical region \
             and re-time it at one cycle fewer until convergence")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ rounds_arg $ transform_arg $ verify_arg)

let stats_cmd =
  let run tel connect =
    with_telemetry tel @@ fun () ->
    print_string (Api.Render.to_text (payload_or_die connect Req.Stats))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print serving-tier gauges: fleet counters from a router, or \
             executor-process gauges from a daemon / in-process run")
    Term.(const run $ telemetry_term $ connect_arg)

(* Both listings execute the same Workloads request; "list" is the
   pre-catalog spelling kept for scripts, printing the same leading
   columns as before. *)
let workloads_cmd =
  let run tel connect tag json =
    with_telemetry tel @@ fun () ->
    let payload = payload_or_die connect (Req.Workloads { tag }) in
    if json then
      print_endline
        (Hls_dse.Dse_json.to_string ~indent:true
           (Resp.payload_to_json payload))
    else print_string (Api.Render.to_text payload)
  in
  let tag_arg =
    Arg.(value & opt (some string) None
         & info [ "tag" ] ~docv:"TAG"
             ~doc:"Only list workloads carrying this tag.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the catalog as JSON.")
  in
  Cmd.v
    (Cmd.info "workloads"
       ~doc:"List the workload catalog: name, size, kind, default latency \
             and tags")
    Term.(const run $ telemetry_term $ connect_arg $ tag_arg $ json_arg)

let list_cmd =
  let run tel connect =
    with_telemetry tel @@ fun () ->
    print_string
      (Api.Render.to_text (payload_or_die connect (Req.Workloads { tag = None })))
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workloads (alias of 'workloads')")
    Term.(const run $ telemetry_term $ connect_arg)

let fuzz_cmd =
  let run tel connect seed budget lanes dir max_seconds json =
    with_telemetry tel @@ fun () ->
    let payload =
      payload_or_die connect (Req.Fuzz { seed; budget; lanes; dir; max_seconds })
    in
    (if json then
       print_endline
         (Hls_dse.Dse_json.to_string ~indent:true
            (Resp.payload_to_json payload))
     else print_string (Api.Render.to_text payload));
    match payload with
    | Resp.Fuzzed f when f.Resp.fz_mismatches > 0 -> exit 1
    | _ -> ()
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let budget_arg =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"CASES"
             ~doc:"Total case budget, split across the selected lanes.")
  in
  let lanes_arg =
    Arg.(value & opt (list string) []
         & info [ "lanes" ] ~docv:"LANES"
             ~doc:"Comma-separated lanes to run: spec, diff, codec.  \
                   Default: all three.")
  in
  let dir_arg =
    Arg.(value & opt string "_fuzz"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory for shrunk repro files.")
  in
  let max_seconds_arg =
    Arg.(value & opt float 120.
         & info [ "max-seconds" ] ~docv:"S"
             ~doc:"Wall-clock bound for the whole run.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generated specs through every transform \
             preset and the scheduled flow, plus wire-codec round trips.  \
             Exits 1 if any lane found a mismatch.")
    Term.(const run $ telemetry_term $ connect_arg $ seed_arg $ budget_arg
          $ lanes_arg $ dir_arg $ max_seconds_arg $ json_arg)

let explore_cmd =
  let module Dse = Hls_dse in
  let run tel connect file builtin latspec policies libs balance recipes
      iterates verify cleanup jobs timeout cache_path feedback retries backoff
      degrade resume json =
    (* The sweep always arms metric recording: its report carries the
       per-phase time breakdown whether or not --metrics was given. *)
    with_telemetry ~arm_metrics:true tel @@ fun () ->
    let latencies = or_die (Dse.Space.parse_latencies latspec) in
    let policies =
      match policies with
      | "both" -> [ `Full; `Coalesced ]
      | s -> (
          match Dse.Space.policy_of_name s with
          | Some p -> [ p ]
          | None -> usage_die (Printf.sprintf "unknown policy %S" s))
    in
    let lib_names =
      match libs with
      | "both" -> List.map fst Dse.Space.known_libs
      | s -> [ s ]
    in
    let bools ~name spec =
      match spec with
      | "both" -> Ok [ true; false ]
      | "on" -> Ok [ true ]
      | "off" -> Ok [ false ]
      | s -> Error (Printf.sprintf "bad %s %S (use on, off or both)" name s)
    in
    let balance = or_die (bools ~name:"--balance" balance) in
    (* --recipes is the axis; within one axis value join passes with '+'
       (commas separate axis values here).  --cleanup survives as a
       deprecated translation onto the cleanup preset. *)
    let recipes =
      match (recipes, cleanup) with
      | "", "off" -> [ "none" ]
      | "", spec ->
          List.map
            (fun on -> if on then "cleanup" else "none")
            (or_die (bools ~name:"--cleanup" spec))
      | spec, "off" -> Hls_xform.Recipe.split_specs spec
      | _, _ ->
          usage_die "give --recipes or the deprecated --cleanup, not both"
    in
    if connect <> None && (cache_path <> None || resume) then
      usage_die "--cache/--resume are daemon-side state; drop them with \
                 --connect (start the daemon with --cache instead)";
    if resume && cache_path = None then
      usage_die "--resume needs --cache FILE (the journal to replay)";
    let cache =
      match cache_path with
      | None -> None
      | Some path -> (
          match Dse.Cache.create ~path () with
          | c -> Some c
          | exception Dse.Cache.Locked lock ->
              usage_die
                (Printf.sprintf
                   "cache is locked by another live sweep (%s); wait for it \
                    or remove the lock if you are sure"
                   lock))
    in
    (match cache with
    | None -> ()
    | Some cache ->
        (match Dse.Cache.load_warnings cache with
        | [] -> ()
        | ws ->
            Printf.eprintf
              "hlsopt: cache loaded with %d warning%s (damaged entries will \
               recompute): %s\n%!"
              (List.length ws)
              (if List.length ws = 1 then "" else "s")
              (String.concat "; " ws));
        if resume then
          Printf.eprintf
            "hlsopt: resuming: %d point%s recovered from the journal, %d in \
             the store\n%!"
            (Dse.Cache.recovered cache)
            (if Dse.Cache.recovered cache = 1 then "" else "s")
            (Dse.Cache.length cache - Dse.Cache.recovered cache))
    ;
    let params =
      {
        Req.latencies;
        policies;
        lib_names;
        balance_axis = balance;
        recipes;
        iterates;
        verify;
        jobs = (if jobs <= 0 then None else Some jobs);
        timeout_s = timeout;
        feedback;
        retries;
        backoff_s = backoff;
        degrade;
      }
    in
    let req = Req.Explore { spec = spec_of ~file ~builtin; params } in
    match payload_or_die ?cache connect req with
    | Resp.Explored result ->
        if json then
          print_endline
            (Dse.Dse_json.to_string ~indent:true (Dse.Explore.to_json result))
        else Format.printf "%a" Dse.Explore.pp result
    | _ -> usage_die "server returned a non-explore payload"
  in
  let latency_arg =
    Arg.(value & opt string "2:6"
         & info [ "latency"; "l" ] ~docv:"RANGE"
             ~doc:"Latency axis: N, LO:HI, LO:HI:STEP or a comma list.")
  in
  let policies_arg =
    Arg.(value & opt string "full"
         & info [ "policies" ] ~docv:"P"
             ~doc:"Fragmentation policies: full, coalesced or both.")
  in
  let libs_arg =
    Arg.(value & opt string "ripple"
         & info [ "libs" ] ~docv:"L"
             ~doc:"Technology libraries: ripple, cla or both.")
  in
  let balance_arg =
    Arg.(value & opt string "on"
         & info [ "balance" ] ~docv:"B"
             ~doc:"Scheduler balancing axis: on, off or both.")
  in
  let recipes_arg =
    Arg.(value & opt string ""
         & info [ "recipes" ] ~docv:"SPECS"
             ~doc:"Transformation-recipe axis: comma-separated recipe specs \
                   (join passes inside one recipe with '+', e.g. \
                   none,standard,fold+cse+dce).")
  in
  let iterate_arg =
    Arg.(value & opt (list int) [ 0 ]
         & info [ "iterate" ] ~docv:"N,..."
             ~doc:"Feedback-iteration budget axis: accepted-round budgets \
                   to sweep (0 = one-shot scheduling).")
  in
  let verify_arg =
    Arg.(value & opt string "off"
         & info [ "verify" ] ~docv:"POLICY" ~doc:verify_doc)
  in
  let cleanup_arg =
    Arg.(value & opt string "off"
         & info [ "cleanup" ] ~docv:"C"
             ~doc:"Deprecated: presynthesis cleanup axis (on, off or both); \
                   use --recipes none,cleanup instead.")
  in
  let jobs_arg =
    Arg.(value & opt int 0
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains (0 = auto, 1 = serial).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"S" ~doc:"Per-job timeout in seconds.")
  in
  let cache_arg =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"JSON cache file for incremental re-runs.")
  in
  let feedback_arg =
    Arg.(value & opt int 0
         & info [ "feedback" ] ~docv:"N"
             ~doc:"Feedback rounds refining the latency axis around the \
                   frontier.")
  in
  let retries_arg =
    Arg.(value & opt int 1
         & info [ "retries" ] ~docv:"N"
             ~doc:"Attempts per job (1 = no retry).  Transient faults \
                   (timeout, resource, internal) are re-dispatched with \
                   exponential backoff; infeasible points fail fast.")
  in
  let backoff_arg =
    Arg.(value & opt float 0.05
         & info [ "backoff" ] ~docv:"S"
             ~doc:"Base backoff before the second attempt, in seconds \
                   (doubles per retry round, deterministic jitter).")
  in
  let degrade_arg =
    Arg.(value & flag
         & info [ "degrade" ]
             ~doc:"When the fragmented flow fails or times out at a point, \
                   fall back to the direct (conventional) flow and keep the \
                   point, marked degraded, instead of losing it.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume an interrupted sweep: replay the cache journal \
                   (needs --cache) and recompute only the missing points.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the sweep as JSON.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Sweep the design space and print its Pareto frontier")
    Term.(const run $ telemetry_term $ connect_arg $ file_arg $ builtin_arg
          $ latency_arg $ policies_arg $ libs_arg $ balance_arg $ recipes_arg
          $ iterate_arg $ verify_arg $ cleanup_arg $ jobs_arg $ timeout_arg
          $ cache_arg $ feedback_arg $ retries_arg $ backoff_arg $ degrade_arg
          $ resume_arg $ json_arg)

(* "HOST:PORT" for --listen; rejects bare socket paths. *)
let parse_listen = function
  | None -> None
  | Some s -> (
      match Hls_server.Client.parse_address s with
      | Hls_server.Client.Tcp (h, p) -> Some (h, p)
      | Hls_server.Client.Unix_socket _ ->
          usage_die ("--listen expects HOST:PORT, got " ^ s))

let serve_cmd =
  let module Server = Hls_server.Server in
  let run tel socket listen stdio queue batch jobs cache_path io_timeout
      max_conns grace =
    with_telemetry tel @@ fun () ->
    let cache =
      match cache_path with
      | None -> None
      | Some path -> (
          match Hls_dse.Cache.create ~path () with
          | c -> Some c
          | exception Hls_dse.Cache.Locked lock ->
              usage_die
                (Printf.sprintf "cache is locked by another live process (%s)"
                   lock))
    in
    let exec = Api.Exec.create ?cache () in
    Fun.protect
      ~finally:(fun () -> Api.Exec.close exec)
      (fun () ->
        let listen = parse_listen listen in
        if stdio then Server.serve_stdio exec stdin stdout
        else if socket = None && listen = None then
          usage_die "give --socket PATH, --listen HOST:PORT or --stdio"
        else begin
          let cfg =
            {
              (Server.default_config ~socket:"") with
              Server.socket;
              listen;
              max_queue = queue;
              batch;
              workers = (if jobs <= 0 then None else Some jobs);
              max_conns;
              io_timeout_s = (if io_timeout <= 0. then None else Some io_timeout);
              grace_s = grace;
            }
          in
          let endpoints =
            (match socket with Some s -> [ s ] | None -> [])
            @ (match listen with
              | Some (h, p) -> [ Printf.sprintf "%s:%d" h p ]
              | None -> [])
          in
          Printf.eprintf "hlsopt: serving on %s (queue %d, batch %d)\n%!"
            (String.concat " and " endpoints)
            queue batch;
          Server.serve ~handle_signals:true cfg exec;
          prerr_endline "hlsopt: drained, exiting"
        end)
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket"; "s" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on.")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT"
             ~doc:"Also (or instead) listen on TCP; same NDJSON protocol.")
  in
  let stdio_arg =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve NDJSON on stdin/stdout instead of a socket.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound; beyond it requests are answered \
                   overloaded (exit code 6) instead of buffered.")
  in
  let batch_arg =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"N" ~doc:"Max requests per pool batch.")
  in
  let jobs_arg =
    Arg.(value & opt int 0
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for request batches (0 = auto).")
  in
  let cache_arg =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"Shared sweep cache backing every explore request.")
  in
  let io_timeout_arg =
    Arg.(value & opt float 0.
         & info [ "io-timeout" ] ~docv:"SECS"
             ~doc:"Per-connection read/write timeout: a connection stalled \
                   mid-request longer than this is answered unavailable and \
                   dropped (0 = no timeout).")
  in
  let max_conns_arg =
    Arg.(value & opt int 256
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent connection cap; beyond it new connections are \
                   answered unavailable (exit code 8) and closed.")
  in
  let grace_arg =
    Arg.(value & opt float 5.
         & info [ "grace" ] ~docv:"SECS"
             ~doc:"Shutdown drain bound: work still queued this long after \
                   SIGTERM is answered unavailable instead of executed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the request daemon (line-delimited JSON requests)")
    Term.(const run $ telemetry_term $ socket_arg $ listen_arg $ stdio_arg
          $ queue_arg $ batch_arg $ jobs_arg $ cache_arg $ io_timeout_arg
          $ max_conns_arg $ grace_arg)

let call_cmd =
  let module Retry = Hls_pool.Retry_policy in
  let run socket burst retries backoff =
    if burst && retries > 0 then
      usage_die "--burst pipelines one connection; it cannot retry \
                 (drop --retries)";
    let retry =
      if retries <= 0 then Retry.none
      else Retry.make ~attempts:(retries + 1) ~backoff_s:backoff ()
    in
    if retries > 0 then
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then
             (* The last answer received is printed even when the
                budget runs out, so callers see the typed error. *)
             match Hls_server.Client.raw_call_retry ~socket ~retry line with
             | Ok resp, _ -> print_endline resp
             | Error m, _ -> transport_die m
         done
       with End_of_file -> ())
    else
      match Hls_server.Client.connect socket with
      | Error m -> transport_die m
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Hls_server.Client.close c)
            (fun () ->
              let lines = ref [] in
              (try
                 while true do
                   let line = input_line stdin in
                   if String.trim line <> "" then
                     if burst then lines := line :: !lines
                     else
                       match Hls_server.Client.raw_roundtrip c line with
                       | Ok resp -> print_endline resp
                       | Error m -> transport_die m
                 done
               with End_of_file -> ());
              if burst then
                (* ship everything before reading anything: the only way a
                   single connection can overrun the admission queue *)
                match
                  Hls_server.Client.raw_burst c (List.rev !lines)
                with
                | Ok resps -> List.iter print_endline resps
                | Error m -> transport_die m)
  in
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Daemon or router to talk to: a Unix-socket path or \
                   HOST:PORT.")
  in
  let burst_arg =
    Arg.(value & flag
         & info [ "burst" ]
             ~doc:"Send every request before reading any response \
                   (pipelined; exercises the admission queue).")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry each request up to N times on retryable answers \
                   (overloaded, unavailable, retryable failures) and \
                   transport errors, reconnecting per attempt.")
  in
  let backoff_arg =
    Arg.(value & opt float 0.05
         & info [ "backoff" ] ~docv:"SECS"
             ~doc:"Base delay before the second attempt; doubles per \
                   attempt with jitter.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Pipe raw NDJSON requests from stdin to a daemon, print raw \
             responses")
    Term.(const run $ socket_arg $ burst_arg $ retries_arg $ backoff_arg)

let route_cmd =
  let module Router = Hls_router.Router in
  let run tel socket listen backends spawn spawn_dir queue batch jobs
      max_inflight retries backoff probe_interval probe_timeout eject_after
      cooldown hold grace io_timeout =
    with_telemetry tel @@ fun () ->
    let listen = parse_listen listen in
    if socket = None && listen = None then
      usage_die "give --socket PATH or --listen HOST:PORT";
    if backends = [] && spawn <= 0 then
      usage_die "give --backends ADDR,... or --spawn N";
    let spawn_cfg =
      if spawn <= 0 then None
      else begin
        let dir =
          match spawn_dir with
          | Some d -> d
          | None ->
              Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "hlsopt-fleet-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let socket_of i =
          Filename.concat dir (Printf.sprintf "backend-%d.sock" i)
        in
        let command i =
          Array.of_list
            ([ Sys.executable_name; "serve"; "--socket"; socket_of i;
               "--queue"; string_of_int queue; "--batch"; string_of_int batch ]
            @ (if jobs > 0 then [ "--jobs"; string_of_int jobs ] else []))
        in
        Some { Router.count = spawn; command; socket_of }
      end
    in
    let cfg =
      {
        (Router.default_config ()) with
        Router.socket;
        listen;
        backends;
        spawn = spawn_cfg;
        max_inflight;
        retry =
          Hls_pool.Retry_policy.make ~attempts:(retries + 1)
            ~backoff_s:backoff ();
        probe_interval_s = probe_interval;
        probe_timeout_s = probe_timeout;
        eject_after;
        cooldown_s = cooldown;
        hold_s = hold;
        grace_s = grace;
        io_timeout_s = (if io_timeout <= 0. then None else Some io_timeout);
      }
    in
    let endpoints =
      (match socket with Some s -> [ s ] | None -> [])
      @ (match listen with
        | Some (h, p) -> [ Printf.sprintf "%s:%d" h p ]
        | None -> [])
    in
    Printf.eprintf "hlsopt: routing on %s across %d backends\n%!"
      (String.concat " and " endpoints)
      (List.length backends + max 0 spawn);
    Router.serve ~handle_signals:true
      ~log:(fun m -> Printf.eprintf "hlsopt: %s\n%!" m)
      cfg;
    prerr_endline "hlsopt: router drained, exiting"
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket"; "s" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to accept clients on.")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT"
             ~doc:"Also (or instead) accept clients over TCP.")
  in
  let backends_arg =
    Arg.(value & opt (list string) []
         & info [ "backends" ] ~docv:"ADDR,..."
             ~doc:"Externally managed backend daemons (socket paths or \
                   HOST:PORT addresses).")
  in
  let spawn_arg =
    Arg.(value & opt int 0
         & info [ "spawn" ] ~docv:"N"
             ~doc:"Spawn N 'hlsopt serve' child backends and respawn them \
                   when they die.")
  in
  let spawn_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "spawn-dir" ] ~docv:"DIR"
             ~doc:"Directory for spawned backends' sockets (default: a \
                   per-pid directory under the system temp dir).")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound forwarded to spawned backends.")
  in
  let batch_arg =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"N"
             ~doc:"Batch bound forwarded to spawned backends.")
  in
  let jobs_arg =
    Arg.(value & opt int 0
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains forwarded to spawned backends (0 = auto).")
  in
  let max_inflight_arg =
    Arg.(value & opt int 256
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Cap on queued plus in-flight requests; beyond it \
                   requests are answered overloaded (exit code 6).")
  in
  let retries_arg =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"N"
             ~doc:"Failover attempts per request after its first dispatch \
                   before answering unavailable (exit code 8).")
  in
  let backoff_arg =
    Arg.(value & opt float 0.05
         & info [ "backoff" ] ~docv:"SECS"
             ~doc:"Base failover backoff; doubles per attempt with jitter.")
  in
  let probe_interval_arg =
    Arg.(value & opt float 0.5
         & info [ "probe-interval" ] ~docv:"SECS"
             ~doc:"How often each backend is health-checked with a ping.")
  in
  let probe_timeout_arg =
    Arg.(value & opt float 2.
         & info [ "probe-timeout" ] ~docv:"SECS"
             ~doc:"Unanswered probes older than this count as failures.")
  in
  let eject_after_arg =
    Arg.(value & opt int 3
         & info [ "eject-after" ] ~docv:"N"
             ~doc:"Consecutive failures before a backend stops taking \
                   traffic.")
  in
  let cooldown_arg =
    Arg.(value & opt float 1.
         & info [ "cooldown" ] ~docv:"SECS"
             ~doc:"Ejection time before a half-open probe may readmit the \
                   backend.")
  in
  let hold_arg =
    Arg.(value & opt float 5.
         & info [ "hold" ] ~docv:"SECS"
             ~doc:"How long a request waits for a healthy backend before \
                   it is answered unavailable.")
  in
  let grace_arg =
    Arg.(value & opt float 5.
         & info [ "grace" ] ~docv:"SECS"
             ~doc:"Shutdown drain bound: in-flight work unanswered this \
                   long after SIGTERM is answered unavailable.")
  in
  let io_timeout_arg =
    Arg.(value & opt float 30.
         & info [ "io-timeout" ] ~docv:"SECS"
             ~doc:"Per-client read/write timeout: a client that stops \
                   reading its responses, or stalls mid-request, is dropped \
                   after this long instead of stalling the router (0 = no \
                   timeout).")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run the sharded serving front end: digest-affinity routing, \
             health-checked backends, failover, scatter-gathered explores")
    Term.(const run $ telemetry_term $ socket_arg $ listen_arg $ backends_arg
          $ spawn_arg $ spawn_dir_arg $ queue_arg $ batch_arg $ jobs_arg
          $ max_inflight_arg $ retries_arg $ backoff_arg $ probe_interval_arg
          $ probe_timeout_arg $ eject_after_arg $ cooldown_arg $ hold_arg
          $ grace_arg $ io_timeout_arg)

(* Structural checks over a --trace file; `make trace-smoke` leans on
   this so CI can tell a Perfetto-loadable trace from truncated JSON. *)
let trace_validate_cmd =
  let module J = Hls_dse.Dse_json in
  let run file expects min_tracks =
    let ic = open_in file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let j = or_die (J.of_string src) in
    let events =
      match Option.bind (J.member "traceEvents" j) J.to_list with
      | Some l -> l
      | None -> usage_die (file ^ ": no traceEvents array")
    in
    let spans = Hashtbl.create 16 and tracks = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let str k = Option.bind (J.member k e) J.to_str in
        let int k = Option.bind (J.member k e) J.to_int in
        (match (str "ph", str "name") with
        | Some "X", Some n -> Hashtbl.replace spans n ()
        | (Some _ | None), _ -> ());
        match (int "pid", int "tid") with
        | Some p, Some t -> Hashtbl.replace tracks (p, t) ()
        | _ -> usage_die (file ^ ": event without integer pid/tid"))
      events;
    let missing = List.filter (fun n -> not (Hashtbl.mem spans n)) expects in
    if missing <> [] then
      usage_die
        (Printf.sprintf "%s: missing span%s: %s" file
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing));
    if Hashtbl.length tracks < min_tracks then
      usage_die
        (Printf.sprintf "%s: expected at least %d tracks, found %d" file
           min_tracks (Hashtbl.length tracks));
    Printf.printf "trace OK: %d events, %d spans, %d tracks\n"
      (List.length events) (Hashtbl.length spans) (Hashtbl.length tracks)
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE" ~doc:"Chrome trace-event JSON file.")
  in
  let expect_arg =
    Arg.(value & opt (list string) []
         & info [ "expect" ] ~docv:"NAMES"
             ~doc:"Comma-separated span names that must appear as complete \
                   ('X') events.")
  in
  let min_tracks_arg =
    Arg.(value & opt int 1
         & info [ "min-tracks" ] ~docv:"N"
             ~doc:"Minimum number of distinct (pid, tid) tracks.")
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:"Check that a --trace file is well-formed Chrome trace JSON")
    Term.(const run $ file_arg $ expect_arg $ min_tracks_arg)

(* Fault injection (tests and `make fault-smoke` only): inert unless the
   HLS_FAULTS environment variable is set. *)
let () =
  match Hls_util.Faults.arm_from_env () with
  | () -> ()
  | exception Invalid_argument m -> usage_die ("bad HLS_FAULTS: " ^ m)

let main =
  let doc = "operation-fragmentation presynthesis optimization for HLS" in
  Cmd.group (Cmd.info "hlsopt" ~version:"1.0.0" ~doc)
    [ parse_cmd; optimize_cmd; transform_cmd; schedule_cmd; report_cmd;
      explore_cmd; iterate_cmd; emit_vhdl_cmd; emit_verilog_cmd; simulate_cmd;
      serve_cmd; route_cmd; call_cmd; stats_cmd; workloads_cmd; list_cmd;
      fuzz_cmd; trace_validate_cmd ]

let () = exit (Cmd.eval main)
