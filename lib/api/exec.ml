(* One executor for every Api.Request, shared by the CLI, the server and
   the tests.

   Requests execute in two halves so a server can batch them safely:

   - [stage] runs on the coordinator.  It loads the specification,
     resolves the config, and memoizes the latency-independent pipeline
     prefix (Pipeline.prepare) per (graph digest, recipe, verify) — the
     shared mutable state lives here and only here.
   - the returned thunk is the per-request suffix.  [Pure] thunks touch
     nothing shared and are safe to fan out over worker domains; [Serial]
     thunks (explore: owns a worker pool of its own and writes the shared
     sweep cache) must run in the coordinator.

   Thunks raise; the caller classifies through the one
   {!Hls_util.Failure} taxonomy, so a local run and a pooled run report
   identical errors. *)

module P = Hls_core.Pipeline
module Graph = Hls_dfg.Graph
module Failure = Hls_util.Failure
module Dse = Hls_dse

type t = {
  cache : Dse.Cache.t;  (** shared by every explore request *)
  prepared : (string * string * string, P.prepared) Hashtbl.t;
      (** latency-independent prefix, keyed (graph digest, canonical
          recipe spec, verify policy) *)
  mutable prepared_hits : int;
}

let create ?cache ?timing_workers:_ () =
  let cache =
    match cache with Some c -> c | None -> Dse.Cache.create ()
  in
  { cache; prepared = Hashtbl.create 8; prepared_hits = 0 }

let close t = Dse.Cache.close t.cache

let prepared_hits t = t.prepared_hits

(* ------------------------------------------------------------------ *)
(* Loading.                                                            *)

let load_spec = function
  | Request.Source src -> Hls_speclang.Elaborate.from_string_result src
  | Request.File path -> (
      match
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | src -> Hls_speclang.Elaborate.from_string_result src
      | exception Sys_error m -> Error m)
  | Request.Builtin name -> (
      match Hls_workloads.Catalog.find_graph name with
      | Some g -> Ok g
      | None ->
          Error
            (Printf.sprintf "unknown builtin %s (try: %s)" name
               (String.concat ", " (Hls_workloads.Catalog.names ()))))

let prepare_memo t g ~transform ~verify =
  let digest = Dse.Cache.graph_digest g in
  let key =
    ( digest,
      Hls_xform.Recipe.to_string transform,
      Hls_xform.Verify.to_string verify )
  in
  match Hashtbl.find_opt t.prepared key with
  | Some p ->
      t.prepared_hits <- t.prepared_hits + 1;
      p
  | None ->
      let p = P.prepare ~transform ~verify g in
      Hashtbl.replace t.prepared key p;
      p

let graph_stats g =
  {
    Response.gs_name = Graph.name g;
    gs_inputs = List.length g.Graph.inputs;
    gs_outputs = List.length g.Graph.outputs;
    gs_nodes = Graph.node_count g;
    gs_ops = Graph.behavioural_op_count g;
    gs_critical =
      Hls_timing.Critical_path.critical_delta (Hls_kernel.Extract.run g);
  }

(* ------------------------------------------------------------------ *)
(* Staging.                                                            *)

type staged =
  | Ready of (Response.payload, Response.error) result
      (** resolved during staging (usage errors, preparation faults) *)
  | Pure of (unit -> Response.payload)
      (** no shared state: safe on a worker domain; raises on failure *)
  | Serial of (unit -> Response.payload)
      (** owns a pool / writes the shared cache: coordinator only *)

let run_or_raise cfg p ~latency =
  match P.run cfg p ~latency with
  | Ok r -> r
  | Error f -> raise (Failure.Flow_failure f)

let emitted_spec tg =
  match Hls_speclang.Emit.emit tg with
  | src -> src
  | exception Hls_speclang.Emit.Unprintable _ -> Hls_speclang.Vhdl.emit tg

let gantt_rows s =
  let g = Hls_sched.Frag_sched.graph s in
  let by_op = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun n ->
      match (n.Hls_dfg.Types.kind, n.Hls_dfg.Types.origin) with
      | Hls_dfg.Types.Add, Some o ->
          let key = o.Hls_dfg.Types.orig_op in
          let cycles = Option.value (Hashtbl.find_opt by_op key) ~default:[] in
          Hashtbl.replace by_op key
            (s.Hls_sched.Frag_sched.cycle_of.(n.Hls_dfg.Types.id) :: cycles)
      | _ -> ())
    g;
  Hashtbl.fold
    (fun k v acc -> (k, List.sort_uniq compare v) :: acc)
    by_op []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Deadlines.                                                          *)

(* Wall-clock deadlines (ms since the Unix epoch, matching the
   envelope's [deadline_ms]).  Expired work is shed as a retryable
   Timeout instead of burning a worker: the client has already given up,
   so the only useful outcome is freeing the slot fast. *)

let now_ms () = Unix.gettimeofday () *. 1e3
let expired deadline_ms = now_ms () > deadline_ms

(* The carried float is how long past the deadline we noticed, matching
   Timeout's "seconds the job had been running" reading closely enough
   for the taxonomy: exit 4, retryable. *)
let deadline_failure deadline_ms =
  Failure.Timeout (max 0. ((now_ms () -. deadline_ms) /. 1e3))

(* Wrap a staged suffix so a deadline that expires while the request sits
   in the queue sheds at dispatch instead of executing. *)
let with_deadline deadline f =
  match deadline with
  | None -> f
  | Some d ->
      fun () ->
        if expired d then begin
          Hls_telemetry.count "api.deadline_shed";
          raise (Failure.Flow_failure (deadline_failure d))
        end
        else f ()

let stage t req =
  let usage m = Ready (Error (Response.Usage m)) in
  match req with
  | Request.Ping -> Ready (Ok (Response.Pong { pong_pid = Unix.getpid () }))
  | Request.Stats ->
      (* Executor-process gauges; the router answers this verb itself
         with fleet counters, so reaching an executor means the caller
         asked this process directly. *)
      Ready
        (Ok
           (Response.Stats
              {
                st_source = "exec";
                st_gauges =
                  [
                    ("pid", Unix.getpid ());
                    ("prepared_entries", Hashtbl.length t.prepared);
                    ("prepared_hits", t.prepared_hits);
                  ];
              }))
  | Request.Workloads { tag } ->
      let entries =
        match tag with
        | None -> Hls_workloads.Catalog.all ()
        | Some tg -> Hls_workloads.Catalog.with_tag tg
      in
      Ready
        (Ok
           (Response.Workloads
              (List.map
                 (fun (e : Hls_workloads.Catalog.entry) ->
                   let g = Hls_workloads.Catalog.graph e in
                   {
                     Response.w_name = e.Hls_workloads.Catalog.name;
                     w_kind =
                       Hls_workloads.Catalog.kind_to_string
                         e.Hls_workloads.Catalog.kind;
                     w_tags = e.Hls_workloads.Catalog.tags;
                     w_ops = Graph.behavioural_op_count g;
                     w_inputs = List.length g.Graph.inputs;
                     w_latency = e.Hls_workloads.Catalog.default_latency;
                   })
                 entries)))
  | Request.Fuzz { seed; budget; lanes; dir; max_seconds } -> (
      let module D = Hls_fuzz.Driver in
      let parsed =
        List.fold_left
          (fun acc name ->
            match (acc, D.lane_of_string name) with
            | (Error _ as e), _ -> e
            | _, (Error _ as e) -> e
            | Ok ls, Ok l -> Ok (ls @ [ l ]))
          (Ok []) lanes
      in
      match parsed with
      | Error m -> Ready (Error (Response.Usage m))
      | Ok lanes ->
          (* Serial: the run owns its corpus directory and its wall-clock
             budget; fanning cases out is the driver's own business. *)
          Serial
            (fun () ->
              let cfg =
                D.make_config ~seed ~budget ~lanes ~dir ~max_seconds
                  ~codec_case:Fuzz_codec.case ()
              in
              let s = D.run cfg in
              Response.Fuzzed
                {
                  Response.fz_seed = s.D.s_seed;
                  fz_cases = s.D.s_cases;
                  fz_mismatches = s.D.s_mismatches;
                  fz_skipped = s.D.s_skipped;
                  fz_coverage = s.D.s_coverage;
                  fz_wall_s = s.D.s_wall_s;
                  fz_lanes =
                    List.map
                      (fun (l : D.lane_summary) ->
                        {
                          Response.fl_lane = l.D.l_lane;
                          fl_cases = l.D.l_cases;
                          fl_mismatches = l.D.l_mismatches;
                          fl_skipped = l.D.l_skipped;
                          fl_repros = l.D.l_repros;
                        })
                      s.D.s_lanes;
                }))
  | _ -> (
  match load_spec (Option.get (Request.spec_of req)) with
  | Error m -> usage m
  | Ok g -> (
      let with_config (config : Request.config) k =
        match Request.pipeline_config config with
        | Error m -> usage m
        | Ok cfg -> (
            (* Preparation faults are classified here: the prefix runs on
               the coordinator, not under the pool's isolation. *)
            match
              prepare_memo t g ~transform:cfg.P.transform
                ~verify:cfg.P.verify
            with
            | p -> k cfg p
            | exception e ->
                Ready (Error (Response.Failed (Failure.classify_exn e))))
      in
      match req with
      | Request.Ping | Request.Stats | Request.Workloads _ | Request.Fuzz _ ->
          assert false (* handled before spec loading *)
      | Request.Parse _ ->
          Pure
            (fun () ->
              Response.Parsed
                {
                  stats = graph_stats g;
                  pretty = Format.asprintf "%a" Graph.pp g;
                })
      | Request.Optimize { latency; config; vhdl; _ } ->
          with_config config (fun cfg p ->
              Pure
                (fun () ->
                  let r = run_or_raise cfg p ~latency in
                  let tr = r.P.transformed in
                  let tg = tr.Hls_fragment.Transform.graph in
                  Response.Optimized
                    {
                      critical =
                        tr.Hls_fragment.Transform.plan
                          .Hls_fragment.Mobility.critical;
                      cycle =
                        tr.Hls_fragment.Transform.plan
                          .Hls_fragment.Mobility.n_bits;
                      fragments = Graph.behavioural_op_count tg;
                      text =
                        (if vhdl then Hls_speclang.Vhdl.emit tg
                         else emitted_spec tg);
                    }))
      | Request.Report { latency; config; target_ns; _ } ->
          with_config config (fun cfg p ->
              Pure
                (fun () ->
                  let target, latency =
                    match target_ns with
                    | None -> (None, latency)
                    | Some ns -> (
                        match
                          P.latency_for_target ~lib:cfg.P.lib p ~target_ns:ns
                        with
                        | Some l -> (Some (ns, l), l)
                        | None ->
                            raise
                              (Failure.Flow_failure
                                 (Failure.Infeasible
                                    "the period target is unreachable")))
                  in
                  let conv = P.conventional ~lib:cfg.P.lib g ~latency in
                  let r = run_or_raise cfg p ~latency in
                  let equivalence =
                    match P.check_optimized_equivalence g r with
                    | Ok () -> None
                    | Error m -> Some m
                  in
                  Response.Reported
                    {
                      r_stats = graph_stats g;
                      r_latency = latency;
                      r_target = target;
                      r_conventional = Dse.Cache.metrics_of_report conv;
                      r_optimized =
                        Dse.Cache.metrics_of_report r.P.opt_report;
                      r_equivalence = equivalence;
                      r_saved_pct =
                        P.pct_saved ~original:conv.P.cycle_ns
                          ~optimized:r.P.opt_report.P.cycle_ns;
                    }))
      | Request.Schedule { latency; flow = Request.Conventional; _ } ->
          Pure
            (fun () ->
              let s = Hls_sched.List_sched.schedule g ~latency in
              let rows =
                List.init latency (fun i ->
                    {
                      Response.cr_cycle = i + 1;
                      cr_ops =
                        List.map
                          (fun n -> n.Hls_dfg.Types.label)
                          (Hls_sched.List_sched.ops_in_cycle s (i + 1));
                    })
              in
              Response.Scheduled
                {
                  s_flow = Request.Conventional;
                  s_latency = latency;
                  s_rows = rows;
                  s_profile = [];
                  s_used_delta = None;
                  s_cycle_delta = Some s.Hls_sched.List_sched.cycle_delta;
                  s_gantt = [];
                })
      | Request.Schedule { latency; flow = Request.Blc; _ } ->
          Pure
            (fun () ->
              let s = Hls_sched.Blc_sched.schedule g ~latency in
              Response.Scheduled
                {
                  s_flow = Request.Blc;
                  s_latency = latency;
                  s_rows = [];
                  s_profile = [];
                  s_used_delta = None;
                  s_cycle_delta = Some s.Hls_sched.Blc_sched.cycle_delta;
                  s_gantt = [];
                })
      | Request.Schedule { latency; flow = Request.Optimized; config; _ } ->
          with_config config (fun cfg p ->
              Pure
                (fun () ->
                  let r = run_or_raise cfg p ~latency in
                  let s = r.P.schedule in
                  let rows =
                    List.init latency (fun i ->
                        {
                          Response.cr_cycle = i + 1;
                          cr_ops =
                            List.map
                              (fun n -> n.Hls_dfg.Types.label)
                              (Hls_sched.Frag_sched.adds_in_cycle s (i + 1));
                        })
                  in
                  let profile =
                    List.map
                      (fun (pr : Hls_sched.Frag_sched.cycle_profile) ->
                        {
                          Response.pr_cycle = pr.Hls_sched.Frag_sched.cp_cycle;
                          pr_chain = pr.cp_used_delta;
                          pr_fragments = pr.cp_fragments;
                          pr_adder_bits = pr.cp_adder_bits;
                        })
                      (Hls_sched.Frag_sched.profile s)
                  in
                  Response.Scheduled
                    {
                      s_flow = Request.Optimized;
                      s_latency = latency;
                      s_rows = rows;
                      s_profile = profile;
                      s_used_delta = Some (Hls_sched.Frag_sched.used_delta s);
                      s_cycle_delta = None;
                      s_gantt = gantt_rows s;
                    }))
      | Request.Explore { params; _ } -> (
          let axis_errors = ref [] in
          let resolve name of_name items =
            List.filter_map
              (fun n ->
                match of_name n with
                | Some v -> Some (n, v)
                | None ->
                    axis_errors :=
                      Printf.sprintf "unknown %s %S" name n :: !axis_errors;
                    None)
              items
          in
          let libs = resolve "library" Dse.Space.lib_of_name params.lib_names in
          match !axis_errors with
          | e :: _ -> usage e
          | [] -> (
              match Hls_xform.Verify.of_string params.verify with
              | None ->
                  usage
                    (Printf.sprintf "unknown verify policy %S (use %s)"
                       params.verify
                       (String.concat ", "
                          (List.map Hls_xform.Verify.to_string
                             Hls_xform.Verify.all)))
              | Some verify -> (
                  match
                    Dse.Space.make ~latencies:params.latencies
                      ~policies:params.policies ~libs
                      ~balance:params.balance_axis ~recipes:params.recipes
                      ~iterates:params.iterates ()
                  with
                  | Error e -> usage (Dse.Space.axis_error_to_string e)
                  | Ok space ->
                      let retry =
                        if params.retries <= 1 then Hls_pool.Retry_policy.none
                        else
                          Hls_pool.Retry_policy.make ~attempts:params.retries
                            ~backoff_s:params.backoff_s ()
                      in
                      Serial
                        (fun () ->
                          Response.Explored
                            (Dse.Explore.run ?workers:params.jobs
                               ?timeout_s:params.timeout_s ~cache:t.cache
                               ~feedback:params.feedback ~retry
                               ~degrade:params.degrade ~verify g space)))))
      | Request.Transform { recipe; verify; _ } -> (
          match Hls_xform.Recipe.parse recipe with
          | Error m -> usage m
          | Ok recipe -> (
              match Hls_xform.Verify.of_string verify with
              | None ->
                  usage
                    (Printf.sprintf "unknown verify policy %S (use %s)" verify
                       (String.concat ", "
                          (List.map Hls_xform.Verify.to_string
                             Hls_xform.Verify.all)))
              | Some policy ->
                  Pure
                    (fun () ->
                      let o = Hls_xform.Engine.apply ~policy recipe g in
                      let entry (e : Hls_xform.Engine.entry) =
                        let pl = e.Hls_xform.Engine.e_plan in
                        {
                          Response.te_pass = e.Hls_xform.Engine.e_pass;
                          te_fired = e.Hls_xform.Engine.e_fired;
                          te_accepted = e.Hls_xform.Engine.e_accepted;
                          te_sites = List.length pl.Hls_xform.Plan.sites;
                          te_nodes_before = pl.Hls_xform.Plan.nodes_before;
                          te_nodes_after = pl.Hls_xform.Plan.nodes_after;
                          te_depth_before = pl.Hls_xform.Plan.depth_before;
                          te_depth_after = pl.Hls_xform.Plan.depth_after;
                          te_verdict = e.Hls_xform.Engine.e_verdict;
                        }
                      in
                      Response.Transformed
                        {
                          x_recipe = Hls_xform.Recipe.to_string recipe;
                          x_verify = Hls_xform.Verify.to_string policy;
                          x_before = graph_stats g;
                          x_after = graph_stats o.Hls_xform.Engine.graph;
                          x_checks = o.Hls_xform.Engine.checks;
                          x_rejected = o.Hls_xform.Engine.rejected;
                          x_log =
                            List.map entry o.Hls_xform.Engine.log;
                          x_pretty =
                            Format.asprintf "%a" Graph.pp
                              o.Hls_xform.Engine.graph;
                        })))
      | Request.Simulate { latency; seed; config; vcd; _ } ->
          with_config config (fun cfg p ->
              Pure
                (fun () ->
                  let r = run_or_raise cfg p ~latency in
                  let prng = Hls_util.Prng.create ~seed in
                  let inputs = Hls_sim.random_inputs g prng in
                  let reference = Hls_sim.outputs g ~inputs in
                  let netlist =
                    Hls_rtl.Elaborate_netlist.elaborate r.P.schedule
                  in
                  let gates =
                    Hls_rtl.Netlist.run netlist ~cycles:latency ~inputs
                  in
                  Response.Simulated
                    {
                      sim_latency = latency;
                      sim_inputs =
                        List.map
                          (fun (n, v) -> (n, Hls_bitvec.to_int v))
                          inputs;
                      sim_outputs =
                        List.map
                          (fun (n, v) ->
                            ( n,
                              Hls_bitvec.to_int v,
                              Hls_bitvec.to_int (List.assoc n gates) ))
                          reference;
                      sim_vcd =
                        (if vcd then
                           Some
                             (Hls_rtl.Netlist.dump_vcd netlist ~cycles:latency
                                ~inputs)
                         else None);
                    }))
      | Request.Emit { format = Request.Vhdl; _ } ->
          Pure
            (fun () ->
              Response.Emitted
                { format = Request.Vhdl; text = Hls_speclang.Vhdl.emit g })
      | Request.Emit { latency; format; config; _ } ->
          with_config config (fun cfg p ->
              Pure
                (fun () ->
                  let r = run_or_raise cfg p ~latency in
                  let name = Hls_speclang.Names.sanitize (Graph.name g) in
                  let nl = Hls_rtl.Elaborate_netlist.elaborate r.P.schedule in
                  let text =
                    match format with
                    | Request.Vhdl -> assert false (* handled above *)
                    | Request.Vhdl_netlist -> Hls_rtl.Vhdl_netlist.emit ~name nl
                    | Request.Verilog -> Hls_rtl.Verilog.emit ~name nl
                    | Request.Verilog_tb ->
                        let prng = Hls_util.Prng.create ~seed:7 in
                        let vectors =
                          List.init 5 (fun _ ->
                              let inputs = Hls_sim.random_inputs g prng in
                              (inputs, Hls_sim.outputs g ~inputs))
                        in
                        Hls_rtl.Verilog.emit ~name nl ^ "\n"
                        ^ Hls_rtl.Verilog.testbench ~name nl ~cycles:latency
                            ~vectors
                  in
                  Response.Emitted { format; text }))
      | Request.Iterate { latency; rounds; config; _ } ->
          with_config config (fun cfg p ->
              let cfg = { cfg with P.iterate = max 1 rounds } in
              Pure
                (fun () ->
                  match P.run_iterated cfg p ~latency with
                  | Error f -> raise (Failure.Flow_failure f)
                  | Ok (_, o) ->
                      let round (r : Hls_iter.Iter.round) =
                        {
                          Response.ir_index = r.Hls_iter.Iter.r_index;
                          ir_target = r.Hls_iter.Iter.r_target;
                          ir_cap = r.Hls_iter.Iter.r_cap;
                          ir_region = r.Hls_iter.Iter.r_region;
                          ir_region_adds = r.Hls_iter.Iter.r_region_adds;
                          ir_pinned = r.Hls_iter.Iter.r_pinned;
                          ir_accepted = r.Hls_iter.Iter.r_accepted;
                          ir_latency = r.Hls_iter.Iter.r_latency;
                          ir_delta = r.Hls_iter.Iter.r_delta;
                        }
                      in
                      Response.Iterated
                        {
                          it_initial_latency =
                            o.Hls_iter.Iter.o_initial_latency;
                          it_final_latency = o.Hls_iter.Iter.o_final_latency;
                          it_initial_delta = o.Hls_iter.Iter.o_initial_delta;
                          it_final_delta = o.Hls_iter.Iter.o_final_delta;
                          it_saved_pct = Hls_iter.Iter.saved_pct o;
                          it_stop =
                            Hls_iter.Iter.stop_to_string o.Hls_iter.Iter.o_stop;
                          it_rounds =
                            List.map round o.Hls_iter.Iter.o_rounds;
                        }))))

(* ------------------------------------------------------------------ *)
(* Running.                                                            *)

let guard f =
  match f () with
  | p -> Ok p
  | exception e -> Error (Response.Failed (Failure.classify_exn e))

let observed req k =
  Hls_telemetry.count "api.requests";
  let r =
    Hls_telemetry.with_span ~cat:"api"
      ("api." ^ Request.method_name req)
      k
  in
  (match r with
  | Error _ -> Hls_telemetry.count "api.errors"
  | Ok _ -> ());
  r

let run ?deadline t req =
  observed req (fun () ->
      match deadline with
      | Some d when expired d ->
          Hls_telemetry.count "api.deadline_shed";
          Error (Response.Failed (deadline_failure d))
      | _ -> (
          match stage t req with
          | Ready r -> r
          | Pure f | Serial f -> guard (with_deadline deadline f)))

let run_batch ?workers ?timeout_s ?deadlines t reqs =
  let deadline_of i =
    match deadlines with None -> None | Some ds -> ds.(i)
  in
  let staged =
    Array.mapi
      (fun i req ->
        match deadline_of i with
        | Some d when expired d ->
            Hls_telemetry.count "api.deadline_shed";
            Ready (Error (Response.Failed (deadline_failure d)))
        | dl -> (
            match stage t req with
            | Pure f -> Pure (with_deadline dl f)
            | Serial f -> Serial (with_deadline dl f)
            | Ready _ as r -> r))
      reqs
  in
  (* Fan the pure suffixes out over the pool; everything else resolves in
     the coordinator.  run_retry (even with the no-retry policy) probes
     Hls_util.Faults.on_job under the job's batch index, so injected
     faults reach pooled requests exactly as they reach sweep jobs. *)
  let pure_idx =
    Array.to_list staged
    |> List.mapi (fun i s -> (i, s))
    |> List.filter_map (fun (i, s) ->
           match s with Pure _ -> Some i | _ -> None)
    |> Array.of_list
  in
  let thunks =
    Array.map
      (fun i ->
        match staged.(i) with Pure f -> f | _ -> assert false)
      pure_idx
  in
  let outcomes = Hls_pool.run_retry ?workers ?timeout_s thunks in
  let results =
    Array.map
      (function
        | Ready r -> r
        | Serial f -> guard f
        | Pure _ ->
            (* placeholder; every Pure slot is overwritten from the pool
               outcomes just below *)
            Error (Response.Usage "request lost by the pool"))
      staged
  in
  Array.iteri
    (fun k i ->
      results.(i) <-
        (match fst outcomes.(k) with
        | Hls_pool.Done p -> Ok p
        | Hls_pool.Failed f -> Error (Response.Failed f)
        | Hls_pool.Timed_out s ->
            Error (Response.Failed (Failure.Timeout s))))
    pure_idx;
  Array.iteri
    (fun i _ ->
      Hls_telemetry.count "api.requests";
      match results.(i) with
      | Error _ -> Hls_telemetry.count "api.errors"
      | Ok _ -> ())
    results;
  results
