(* The sweep driver: expand a Space into jobs, satisfy what it can from
   the cache, fan the rest out over the Pool, and reduce the reports to a
   Pareto frontier — optionally iterating a feedback loop that refines the
   latency axis around the current frontier.

   The expensive shared prefix of the optimized flow (the behavioural
   transformation recipe, kernel extraction, the kernel's bit-dependency
   net and arrival analysis) is computed once per distinct recipe spec
   and shared by every job; worker domains only run the per-point suffix
   (`Pipeline.run`).  Results are collected in job
   order, so the outcome is identical whatever the worker count. *)

module Pipeline = Hls_core.Pipeline
module Failure = Hls_util.Failure
module Engine = Hls_xform.Engine
module Plan = Hls_xform.Plan

type point = {
  job : Space.job;
  metrics : Cache.metrics;
  from_cache : bool;
  degraded : bool;
      (** the fragmented flow failed here; metrics are the direct
          (conventional) flow's instead of nothing *)
  attempts : int;  (** pool attempts consumed; 0 for a cache hit *)
  wall_s : float;
      (** seconds actually computing this point, summed over every
          attempt (and the degraded fallback, when taken); 0 for a cache
          hit *)
}

type failure = {
  f_job : Space.job;
  f_class : Failure.t;
  f_reason : string;
  f_attempts : int;
}

type transform_summary = {
  t_recipe : string;  (** the recipe spec as given on the axis *)
  t_passes : int;  (** pass applications recorded *)
  t_fired : int;  (** accepted applications that changed the graph *)
  t_checks : int;  (** equivalence checks run by the verify gate *)
  t_rejected : int;  (** applications rolled back *)
  t_nodes_before : int;
  t_nodes_after : int;
  t_depth_before : int;  (** behavioural depth before the recipe *)
  t_depth_after : int;
}

type t = {
  graph_name : string;
  digest : string;
  points : point list;
      (** successful sweep points, stably sorted on the full job key *)
  failures : failure list;  (** same order *)
  frontier : point list;  (** Pareto-optimal subset of [points] *)
  transforms : transform_summary list;
      (** one summary per recipe whose pass log is non-empty (the
          ["none"] recipe never appears), in recipe-spec order *)
  rounds : int;  (** 1 + executed feedback refinements *)
  wall_s : float;
  cache_hits : int;
  cache_misses : int;
  recovered : int;  (** cache entries replayed from the journal *)
  phases : (string * int * float) list;
      (** per-phase (name, calls, total seconds) from the telemetry span
          totals accumulated during this run; empty when the sink was not
          armed *)
  counters : (string * int) list;
      (** telemetry counter deltas accumulated during this run (e.g.
          [cache.hit], [timing.rebuild_dirty]), sorted by name; empty when
          the sink was not armed *)
  gauges : (string * (float * float)) list;
      (** telemetry gauges as (name, (last, max)) at the end of the run
          (e.g. [pool.workers]), sorted by name; empty when the sink
          was not armed *)
}

(** Pool attempts beyond each point's first (the sweep's retry bill). *)
let extra_attempts t =
  let extra n = max 0 (n - 1) in
  List.fold_left (fun acc p -> acc + extra p.attempts) 0 t.points
  + List.fold_left (fun acc f -> acc + extra f.f_attempts) 0 t.failures

let objectives p =
  {
    Pareto.cycle_ns = p.metrics.Cache.m_cycle_ns;
    Pareto.area_gates = p.metrics.Cache.m_total_gates;
    Pareto.latency = p.metrics.Cache.m_latency;
  }

let compute_frontier points = Pareto.frontier ~objectives points

(* Graceful degradation: when the fragmented flow failed at this point
   and the caller asked for it, fall back to the direct (conventional)
   flow on the original graph so the point survives — marked, never
   cached (its metrics are not the optimized flow's).  The fallback runs
   serially in the coordinator: it only fires on failures, which are
   rare, and the conventional flow is cheap next to fragmentation. *)
let degrade_point ~graph (job : Space.job) =
  match
    Pipeline.conventional ~lib:job.Space.lib graph ~latency:job.Space.latency
  with
  | r -> Some (Cache.metrics_of_report r)
  | exception _ -> None

(* One batch of jobs: cache hits become points immediately, the rest run
   on the pool (with the retry policy).  Returns points and failures in
   job order. *)
let run_round ~cache ~digest ~graph ~kernels ~memos ~workers ~timeout_s
    ~retry ~degrade jobs =
  let lookups =
    List.map
      (fun (job : Space.job) ->
        let key = Cache.key ~graph_digest:digest ~job_key:(Space.job_key job) in
        (job, key, Cache.find cache key))
      jobs
  in
  let misses =
    List.filter_map
      (fun (job, key, hit) ->
        match hit with None -> Some (job, key) | Some _ -> None)
      lookups
  in
  (* Per-miss compute seconds, accumulated across retries.  Each slot is
     written by whichever worker domain runs the job and read only after
     [run_retry] returns (its joins are the happens-before edge); a
     timed-out job's abandoned domain may still add to its slot, but that
     slot only feeds a failure report, never a point. *)
  let times = Array.make (max 1 (List.length misses)) 0. in
  let thunks =
    List.mapi
      (fun i ((job : Space.job), _key) () ->
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            times.(i) <- times.(i) +. (Unix.gettimeofday () -. t0))
          (fun () ->
            let prepared = List.assoc job.Space.recipe kernels in
            let config =
              Pipeline.make_config ~lib:job.Space.lib
                ~policy:job.Space.policy ~balance:job.Space.balance
                ~iterate:job.Space.iterate ()
            in
            let memo = List.assoc (job.Space.recipe, job.Space.policy) memos in
            match
              Pipeline.run ~memo config prepared ~latency:job.Space.latency
            with
            | Ok r -> Cache.metrics_of_report r.Pipeline.opt_report
            | Error f -> raise (Failure.Flow_failure f)))
      misses
  in
  let outcomes =
    Hls_pool.run_retry ?workers ?timeout_s ~retry (Array.of_list thunks)
  in
  let computed = Hashtbl.create 16 in
  List.iteri
    (fun i (job, key) ->
      (match outcomes.(i) with
      | Hls_pool.Done m, _ -> Cache.add cache key m
      | (Hls_pool.Failed _ | Hls_pool.Timed_out _), _ -> ());
      Hashtbl.replace computed (Space.job_key job) (outcomes.(i), times.(i)))
    misses;
  List.fold_left
    (fun (points, failures) (job, _key, hit) ->
      match hit with
      | Some m ->
          ( { job; metrics = m; from_cache = true; degraded = false;
              attempts = 0; wall_s = 0. }
            :: points,
            failures )
      | None -> (
          match Hashtbl.find computed (Space.job_key job) with
          | (Hls_pool.Done m, attempts), wall ->
              ( { job; metrics = m; from_cache = false; degraded = false;
                  attempts; wall_s = wall }
                :: points,
                failures )
          | (outcome, attempts), wall -> (
              let f_class = Option.get (Hls_pool.failure_of_outcome outcome) in
              let fail () =
                ( points,
                  {
                    f_job = job;
                    f_class;
                    f_reason = Failure.to_string f_class;
                    f_attempts = attempts;
                  }
                  :: failures )
              in
              if not degrade then fail ()
              else
                let t0 = Unix.gettimeofday () in
                match degrade_point ~graph job with
                | Some m ->
                    ( { job; metrics = m; from_cache = false; degraded = true;
                        attempts;
                        wall_s = wall +. (Unix.gettimeofday () -. t0) }
                      :: points,
                      failures )
                | None -> fail ())))
    ([], []) lookups
  |> fun (points, failures) -> (List.rev points, List.rev failures)

(* Feedback refinement: probe latency±1 around every frontier point
   (other axes unchanged), skipping anything already attempted. *)
let refinement_candidates ~attempted frontier =
  List.concat_map
    (fun { job = (j : Space.job); _ } ->
      List.filter_map
        (fun dl ->
          let latency = j.Space.latency + dl in
          if latency < 1 then None
          else
            let candidate = { j with Space.latency } in
            if Hashtbl.mem attempted (Space.job_key candidate) then None
            else Some candidate)
        [ -1; 1 ])
    frontier
  |> List.sort_uniq (fun a b ->
         compare (Space.job_key a) (Space.job_key b))

(* Canonical phase presentation order: pipeline stages in flow order,
   then the pool's per-job span, then anything else alphabetically. *)
let phase_rank =
  let canon =
    [ "kernel"; "bitnet"; "arrival"; "mobility"; "fragment"; "schedule";
      "bind"; "netlist"; "job" ]
  in
  fun name ->
    let rec go i = function
      | [] -> i
      | c :: rest -> if String.equal c name then i else go (i + 1) rest
    in
    go 0 canon

(* Span totals accumulated during this run = totals at the end minus the
   snapshot taken at the start (the sink is global and never cleared
   mid-run). *)
let phase_delta before after =
  List.filter_map
    (fun (name, (calls, secs)) ->
      let calls0, secs0 =
        match List.assoc_opt name before with
        | Some c_s -> c_s
        | None -> (0, 0.)
      in
      if calls > calls0 then Some (name, calls - calls0, secs -. secs0)
      else None)
    after
  |> List.sort (fun (a, _, _) (b, _, _) ->
         compare (phase_rank a, a) (phase_rank b, b))

(* The per-recipe summary a sweep report carries, condensed from the
   engine's pass log; [None] when no pass ran (the "none" recipe).  A
   sampled-policy rollback (a rejected trailing "verify" entry) means
   the prepared kernel is the untransformed one, so before = after. *)
let summarize_transform spec (p : Pipeline.prepared) =
  match p.Pipeline.p_xform with
  | [] -> None
  | first :: _ as log ->
      let fired e = e.Engine.e_fired && e.Engine.e_accepted in
      let plan e = e.Engine.e_plan in
      let rolled_back =
        match List.rev log with
        | last :: _ -> not last.Engine.e_accepted && last.Engine.e_pass = "verify"
        | [] -> false
      in
      let last_accepted =
        List.fold_left (fun acc e -> if fired e then Some e else acc) None log
      in
      let nodes_before = (plan first).Plan.nodes_before in
      let depth_before = (plan first).Plan.depth_before in
      let nodes_after, depth_after =
        match last_accepted with
        | Some e when not rolled_back ->
            ((plan e).Plan.nodes_after, (plan e).Plan.depth_after)
        | _ -> (nodes_before, depth_before)
      in
      Some
        {
          t_recipe = spec;
          t_passes = List.length log;
          t_fired = List.length (List.filter fired log);
          t_checks =
            List.length (List.filter (fun e -> e.Engine.e_verdict <> None) log);
          t_rejected =
            List.length (List.filter (fun e -> not e.Engine.e_accepted) log);
          t_nodes_before = nodes_before;
          t_nodes_after = nodes_after;
          t_depth_before = depth_before;
          t_depth_after = depth_after;
        }

let run ?workers ?timeout_s ?cache ?(feedback = 0)
    ?(retry = Hls_pool.Retry_policy.none) ?(degrade = false)
    ?(verify = Hls_xform.Verify.Off) graph (space : Space.t) =
  let t0 = Unix.gettimeofday () in
  let spans0 = Hls_telemetry.span_totals () in
  let counters0 = Hls_telemetry.counter_totals () in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let digest = Cache.graph_digest graph in
  let kernels =
    List.map
      (fun spec ->
        let transform = Hls_xform.Recipe.of_string_exn spec in
        (spec, Pipeline.prepare ~transform ~verify graph))
      (List.sort_uniq compare space.Space.recipes)
  in
  let transforms =
    List.filter_map (fun (spec, p) -> summarize_transform spec p) kernels
  in
  (* One fragment memo per kernel and policy: the jobs alternate policies
     within a latency, and the two policies cut differently. *)
  let memos =
    List.concat_map
      (fun (spec, _) ->
        List.map
          (fun policy -> ((spec, policy), Pipeline.frag_memo ()))
          space.Space.policies)
      kernels
  in
  let attempted = Hashtbl.create 64 in
  let points = ref [] and failures = ref [] and rounds = ref 0 in
  let execute jobs =
    let jobs =
      List.filter
        (fun j -> not (Hashtbl.mem attempted (Space.job_key j)))
        jobs
    in
    List.iter (fun j -> Hashtbl.replace attempted (Space.job_key j) ()) jobs;
    if jobs <> [] then begin
      incr rounds;
      let pts, fls =
        run_round ~cache ~digest ~graph ~kernels ~memos ~workers ~timeout_s
          ~retry ~degrade jobs
      in
      points := !points @ pts;
      failures := !failures @ fls;
      (* Journal every completed round: a crash from here on replays
         these points instead of recomputing them. *)
      Cache.journal cache
    end
  in
  execute (Space.jobs space);
  let remaining = ref feedback in
  let continue = ref true in
  while !remaining > 0 && !continue do
    let candidates =
      refinement_candidates ~attempted (compute_frontier !points)
    in
    if candidates = [] then continue := false
    else begin
      execute candidates;
      decr remaining
    end
  done;
  Cache.flush cache;
  (* Stable sort on the full parameter tuple: the report reads the same
     whatever the round structure (feedback refinements append out of
     latency order) or worker count. *)
  let points =
    List.stable_sort (fun a b -> Space.compare_job a.job b.job) !points
  in
  let failures =
    List.stable_sort (fun a b -> Space.compare_job a.f_job b.f_job) !failures
  in
  let phases =
    if Hls_telemetry.armed () then
      phase_delta spans0 (Hls_telemetry.span_totals ())
    else []
  in
  let counters =
    if Hls_telemetry.armed () then
      (* Deltas against the run-start snapshot: only what this sweep
         contributed, even when the sink stays armed across runs. *)
      List.filter_map
        (fun (name, total) ->
          let before =
            Option.value (List.assoc_opt name counters0) ~default:0
          in
          if total > before then Some (name, total - before) else None)
        (Hls_telemetry.counter_totals ())
    else []
  in
  let gauges =
    if Hls_telemetry.armed () then Hls_telemetry.gauge_bindings () else []
  in
  {
    graph_name = Hls_dfg.Graph.name graph;
    digest;
    points;
    failures;
    transforms;
    frontier = compute_frontier points;
    rounds = !rounds;
    wall_s = Unix.gettimeofday () -. t0;
    cache_hits = Cache.hits cache;
    cache_misses = Cache.misses cache;
    recovered = Cache.recovered cache;
    phases;
    counters;
    gauges;
  }

(* ------------------------------------------------------------------ *)
(* The JSON document: what `hlsopt explore --json` prints and the api's
   explore response carries.  Decoding is the exact inverse, so a sweep
   can cross a wire or a file and re-render identically.  Libraries are
   resolved by name through Space.known_libs — a sweep of a custom
   library object does not round-trip, which the api documents. *)

let job_codec =
  let lib = Codec.enum ~expected:"a known library" fst Space.known_libs in
  Codec.(
    obj (fun latency policy (lib_name, lib) balance recipe iterate ->
        { Space.latency; policy; lib_name; lib; balance; recipe; iterate })
    |> req "latency" int (fun j -> j.Space.latency)
    |> req "policy" Space.policy_codec (fun j -> j.Space.policy)
    |> req "lib" lib (fun j -> (j.Space.lib_name, j.Space.lib))
    |> req "balance" bool (fun j -> j.Space.balance)
    |> req "recipe" string (fun j -> j.Space.recipe)
    (* absent in sweep files written before the iteration axis *)
    |> dft "iterate" int ~default:0 (fun j -> j.Space.iterate)
    |> finish ~what:"job")

let point_codec =
  Codec.(
    obj (fun job metrics from_cache degraded attempts wall_s ->
        { job; metrics; from_cache; degraded; attempts; wall_s })
    |> req "job" job_codec (fun p -> p.job)
    |> req "metrics" Cache.metrics_codec (fun p -> p.metrics)
    |> req "from_cache" bool (fun p -> p.from_cache)
    |> req "degraded" bool (fun p -> p.degraded)
    |> req "attempts" int (fun p -> p.attempts)
    |> req "wall_s" float (fun (p : point) -> p.wall_s)
    |> finish ~what:"point")

let failure_codec =
  Codec.(
    obj (fun f_job f_class f_reason f_attempts ->
        { f_job; f_class; f_reason; f_attempts })
    |> req "job" job_codec (fun f -> f.f_job)
    |> req "failure" failure (fun f -> f.f_class)
    |> req "reason" string (fun f -> f.f_reason)
    |> req "attempts" int (fun f -> f.f_attempts)
    |> finish ~what:"failure")

let transform_summary_codec =
  Codec.(
    obj
      (fun t_recipe t_passes t_fired t_checks t_rejected t_nodes_before
           t_nodes_after t_depth_before t_depth_after ->
        {
          t_recipe; t_passes; t_fired; t_checks; t_rejected; t_nodes_before;
          t_nodes_after; t_depth_before; t_depth_after;
        })
    |> req "recipe" string (fun s -> s.t_recipe)
    |> req "passes" int (fun s -> s.t_passes)
    |> req "fired" int (fun s -> s.t_fired)
    |> req "checks" int (fun s -> s.t_checks)
    |> req "rejected" int (fun s -> s.t_rejected)
    |> req "nodes_before" int (fun s -> s.t_nodes_before)
    |> req "nodes_after" int (fun s -> s.t_nodes_after)
    |> req "depth_before" int (fun s -> s.t_depth_before)
    |> req "depth_after" int (fun s -> s.t_depth_after)
    |> finish ~what:"transform summary")

(* The [cache] and [telemetry] sub-objects hold fields of [t] itself. *)
let cache_codec =
  Codec.(
    obj (fun hits misses recovered -> (hits, misses, recovered))
    |> req "hits" int (fun (h, _, _) -> h)
    |> req "misses" int (fun (_, m, _) -> m)
    |> req "recovered" int (fun (_, _, r) -> r)
    |> finish ~what:"cache")

(* [extra_attempts] is derived from the points: written for readers of
   the document, read back and dropped.  Counters and gauges are absent
   in documents written before their export. *)
let telemetry_codec =
  Codec.(
    obj (fun extra phases counters gauges -> (extra, phases, counters, gauges))
    |> dft "extra_attempts" int ~default:0 (fun (e, _, _, _) -> e)
    |> req "phases"
         (list
            (obj (fun name calls total_s -> (name, calls, total_s))
            |> req "name" string (fun (n, _, _) -> n)
            |> req "calls" int (fun (_, c, _) -> c)
            |> req "total_s" float (fun (_, _, s) -> s)
            |> finish ~what:"phase"))
         (fun (_, p, _, _) -> p)
    |> dft "counters" ~default:[]
         (list
            (obj (fun name total -> (name, total))
            |> req "name" string fst
            |> req "total" int snd
            |> finish ~what:"counter"))
         (fun (_, _, c, _) -> c)
    |> dft "gauges" ~default:[]
         (list
            (obj (fun name last mx -> (name, (last, mx)))
            |> req "name" string fst
            |> req "last" float (fun (_, (l, _)) -> l)
            |> req "max" float (fun (_, (_, m)) -> m)
            |> finish ~what:"gauge"))
         (fun (_, _, _, g) -> g)
    |> finish ~what:"telemetry")

let codec =
  Codec.(
    obj
      (fun graph_name digest rounds wall_s (cache_hits, cache_misses, recovered)
           points failures frontier transforms (_, phases, counters, gauges) ->
        {
          graph_name; digest; points; failures; frontier; transforms; rounds;
          wall_s; cache_hits; cache_misses; recovered; phases; counters;
          gauges;
        })
    |> req "graph" string (fun t -> t.graph_name)
    |> req "digest" string (fun t -> t.digest)
    |> req "rounds" int (fun t -> t.rounds)
    |> req "wall_s" float (fun t -> t.wall_s)
    |> req "cache" cache_codec (fun t ->
           (t.cache_hits, t.cache_misses, t.recovered))
    |> req "points" (list point_codec) (fun t -> t.points)
    |> req "failures" (list failure_codec) (fun t -> t.failures)
    |> req "frontier" (list point_codec) (fun t -> t.frontier)
    |> req "transforms" (list transform_summary_codec) (fun t -> t.transforms)
    |> req "telemetry" telemetry_codec (fun t ->
           (extra_attempts t, t.phases, t.counters, t.gauges))
    |> finish ~what:"sweep")

let to_json = Codec.encode codec
let of_json = Codec.decode codec

let pp ppf t =
  let on_frontier =
    let keys =
      List.map (fun p -> Space.job_key p.job) t.frontier
    in
    fun p -> List.mem (Space.job_key p.job) keys
  in
  let row p =
    let m = p.metrics in
    [
      string_of_int p.job.Space.latency;
      Space.policy_name p.job.Space.policy;
      p.job.Space.lib_name;
      (if p.job.Space.balance then "bal" else "asap");
      (if p.job.Space.recipe = "none" then "-" else p.job.Space.recipe);
      Printf.sprintf "%.2f" m.Cache.m_cycle_ns;
      Printf.sprintf "%.2f" m.Cache.m_execution_ns;
      string_of_int m.Cache.m_total_gates;
      string_of_int m.Cache.m_fragment_count;
      Printf.sprintf "%.1f" (p.wall_s *. 1e3);
      (if p.degraded then "degraded"
       else if p.from_cache then "cache"
       else "run");
      (if p.attempts > 1 then string_of_int p.attempts else "");
      (if on_frontier p then "*" else "");
    ]
  in
  let degraded_count =
    List.length (List.filter (fun p -> p.degraded) t.points)
  in
  Format.fprintf ppf
    "sweep of %s: %d points (%d degraded), %d failures, %d round%s, %.3f s@."
    t.graph_name (List.length t.points) degraded_count
    (List.length t.failures) t.rounds
    (if t.rounds = 1 then "" else "s")
    t.wall_s;
  Format.fprintf ppf "cache: %d hits, %d misses%s@.@." t.cache_hits
    t.cache_misses
    (if t.recovered > 0 then
       Printf.sprintf ", %d recovered from journal" t.recovered
     else "");
  Format.pp_print_string ppf
    (Hls_util.Pretty.render_table
       ~header:
         [
           "lat"; "policy"; "lib"; "sched"; "xform"; "cycle/ns"; "exec/ns";
           "gates"; "frags"; "ms"; "src"; "try"; "pareto";
         ]
       (List.map row t.points));
  if t.transforms <> [] then begin
    Format.fprintf ppf "@.transformations:@.";
    List.iter
      (fun s ->
        Format.fprintf ppf
          "  %s: %d/%d pass%s fired, nodes %d -> %d, depth %d -> %d, %d \
           check%s, %d rejected@."
          s.t_recipe s.t_fired s.t_passes
          (if s.t_passes = 1 then "" else "es")
          s.t_nodes_before s.t_nodes_after s.t_depth_before s.t_depth_after
          s.t_checks
          (if s.t_checks = 1 then "" else "s")
          s.t_rejected)
      t.transforms
  end;
  List.iter
    (fun f ->
      Format.fprintf ppf "failed (%s, %d attempt%s): %s: %s@."
        (Failure.class_name f.f_class) f.f_attempts
        (if f.f_attempts = 1 then "" else "s")
        (Space.job_key f.f_job) f.f_reason)
    t.failures;
  Format.fprintf ppf "@.Pareto frontier (%d point%s):@."
    (List.length t.frontier)
    (if List.length t.frontier = 1 then "" else "s");
  List.iter
    (fun p ->
      Format.fprintf ppf "  %s -> %a@." (Space.job_key p.job)
        Pareto.pp_objectives (objectives p))
    t.frontier;
  let extra = extra_attempts t in
  if extra > 0 then
    Format.fprintf ppf "@.retries: %d extra attempt%s@." extra
      (if extra = 1 then "" else "s");
  if t.phases <> [] then begin
    Format.fprintf ppf "@.phase breakdown:@.";
    Format.pp_print_string ppf
      (Hls_util.Pretty.render_table
         ~header:[ "phase"; "calls"; "total/ms"; "mean/us" ]
         (List.map
            (fun (name, calls, secs) ->
              [
                name;
                string_of_int calls;
                Printf.sprintf "%.2f" (secs *. 1e3);
                Printf.sprintf "%.1f" (secs /. float_of_int calls *. 1e6);
              ])
            t.phases))
  end
