(* The design-space exploration engine: sweep expansion, cache hit/miss
   semantics, Pareto-frontier correctness, pool fault isolation, and an
   end-to-end sweep matching the serial pipeline bit-for-bit. *)

module P = Hls_core.Pipeline
module Space = Hls_dse.Space
module Cache = Hls_dse.Cache
module Pool = Hls_pool
module Pareto = Hls_dse.Pareto
module Explore = Hls_dse.Explore
module Json = Hls_dse.Dse_json

(* ------------------------------------------------------------------ *)
(* Space.                                                              *)

(* [Space.make] on axes the test knows to be valid; also used by the
   fault and telemetry suites. *)
let make_space ?latencies ?policies ?balance ?recipes () =
  match Space.make ?latencies ?policies ?balance ?recipes () with
  | Ok s -> s
  | Error e -> Alcotest.failf "Space.make: %s" (Space.axis_error_to_string e)

let test_space_expansion () =
  let space =
    make_space ~latencies:[ 3; 4 ] ~policies:[ `Full; `Coalesced ]
      ~balance:[ true; false ] ()
  in
  let jobs = Space.jobs space in
  Alcotest.(check int) "cartesian size" 8 (List.length jobs);
  Alcotest.(check int) "size agrees" (Space.size space) (List.length jobs);
  let keys = List.map Space.job_key jobs in
  Alcotest.(check int) "keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* Deterministic latency-major order. *)
  Alcotest.(check (list int)) "latency-major"
    [ 3; 3; 3; 3; 4; 4; 4; 4 ]
    (List.map (fun (j : Space.job) -> j.Space.latency) jobs)

let test_space_axis_errors () =
  (match Space.make ~latencies:[ 3; 4; 3 ] () with
  | Error (Space.Duplicate_value { axis = "latency"; value = "3" }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Space.axis_error_to_string e)
  | Ok _ -> Alcotest.fail "duplicate latency must be rejected");
  (match Space.make ~recipes:[ "standard"; "standard" ] () with
  | Error (Space.Duplicate_value { axis = "recipe"; value = "standard" }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Space.axis_error_to_string e)
  | Ok _ -> Alcotest.fail "duplicate recipe must be rejected");
  (match Space.make ~balance:[] () with
  | Error (Space.Empty_axis "balance") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Space.axis_error_to_string e)
  | Ok _ -> Alcotest.fail "empty axis must be rejected");
  (match Space.make ~recipes:[ "none"; "frobnicate" ] () with
  | Error (Space.Bad_recipe _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Space.axis_error_to_string e)
  | Ok _ -> Alcotest.fail "unknown recipe must be rejected");
  match Space.make ~latencies:[ 3; 3 ] () with
  | Error e ->
      let m = Space.axis_error_to_string e in
      Alcotest.(check bool) "the error names the axis" true
        (let needle = "latency" in
         let rec has i =
           i + String.length needle <= String.length m
           && (String.sub m i (String.length needle) = needle || has (i + 1))
         in
         has 0)
  | Ok _ -> Alcotest.fail "make must refuse a duplicate axis value"

let test_recipe_axis () =
  let g = Hls_workloads.Motivational.fig3 () in
  let space =
    make_space ~latencies:[ 3 ] ~recipes:[ "none"; "standard" ] ()
  in
  Alcotest.(check int) "two jobs" 2 (Space.size space);
  let keys = List.map Space.job_key (Space.jobs space) in
  Alcotest.(check bool) "recipe is part of the job key" true
    (List.exists
       (fun k ->
         let needle = "xform=standard" in
         let rec has i =
           i + String.length needle <= String.length k
           && (String.sub k i (String.length needle) = needle || has (i + 1))
         in
         has 0)
       keys);
  let r = Explore.run ~workers:1 ~verify:Hls_xform.Verify.Sampled g space in
  Alcotest.(check int) "both points computed" 2 (List.length r.Explore.points);
  (* The transformed kernel is summarized: one summary for "standard"
     ("none" applies no pass and is omitted), with checks recorded. *)
  (match r.Explore.transforms with
  | [ s ] ->
      Alcotest.(check string) "summarized recipe" "standard"
        s.Explore.t_recipe;
      Alcotest.(check bool) "sampled policy checked" true (s.Explore.t_checks >= 1);
      Alcotest.(check int) "nothing rejected" 0 s.Explore.t_rejected
  | l -> Alcotest.failf "expected one transform summary, got %d" (List.length l));
  (* The sweep's JSON round-trips with the transform summaries intact. *)
  match Explore.of_json (Explore.to_json r) with
  | Error m -> Alcotest.failf "sweep json did not decode: %s" m
  | Ok back ->
      Alcotest.(check bool) "transforms survive the json roundtrip" true
        (back.Explore.transforms = r.Explore.transforms);
      Alcotest.(check string) "json stable"
        (Json.to_string (Explore.to_json r))
        (Json.to_string (Explore.to_json back))

let test_parse_latencies () =
  let ok spec expect =
    match Space.parse_latencies spec with
    | Ok l -> Alcotest.(check (list int)) spec expect l
    | Error m -> Alcotest.failf "%s: %s" spec m
  in
  ok "4" [ 4 ];
  ok "2:6" [ 2; 3; 4; 5; 6 ];
  ok "2:10:3" [ 2; 5; 8 ];
  ok "3,5,7" [ 3; 5; 7 ];
  List.iter
    (fun spec ->
      match Space.parse_latencies spec with
      | Ok _ -> Alcotest.failf "%s should be rejected" spec
      | Error _ -> ())
    [ "x"; "6:2"; "0"; "1:2:3:4"; "" ]

(* ------------------------------------------------------------------ *)
(* Cache.                                                              *)

let test_cache_hit_miss () =
  let g = Hls_workloads.Motivational.chain3 () in
  let cache = Cache.create () in
  let space = make_space ~latencies:[ 3; 4 ] () in
  let first = Explore.run ~workers:1 ~cache g space in
  Alcotest.(check int) "first run misses" 2 (Explore.(first.cache_misses));
  Alcotest.(check int) "first run hits" 0 Explore.(first.cache_hits);
  Alcotest.(check bool) "fresh points computed" true
    (List.for_all (fun p -> not p.Explore.from_cache) first.Explore.points);
  let second = Explore.run ~workers:1 ~cache g space in
  Alcotest.(check int) "second run all hits" 2
    (Explore.(second.cache_hits) - Explore.(first.cache_hits));
  Alcotest.(check int) "second run no recompute" Explore.(first.cache_misses)
    Explore.(second.cache_misses);
  Alcotest.(check bool) "points served from cache" true
    (List.for_all (fun p -> p.Explore.from_cache) second.Explore.points);
  (* Same digest → identical metrics. *)
  Alcotest.(check bool) "metrics identical" true
    (List.map (fun p -> p.Explore.metrics) first.Explore.points
    = List.map (fun p -> p.Explore.metrics) second.Explore.points);
  (* A different graph must not hit. *)
  let g' = Hls_workloads.Motivational.fig3 () in
  Alcotest.(check bool) "digests differ" true
    (Cache.graph_digest g <> Cache.graph_digest g');
  let third = Explore.run ~workers:1 ~cache g' space in
  Alcotest.(check bool) "other graph recomputes" true
    (List.for_all (fun p -> not p.Explore.from_cache) third.Explore.points)

let test_cache_disk_roundtrip () =
  let path = Filename.temp_file "dse-cache" ".json" in
  let g = Hls_workloads.Motivational.chain3 () in
  let space = make_space ~latencies:[ 3 ] () in
  let c1 = Cache.create ~path () in
  let r1 = Explore.run ~workers:1 ~cache:c1 g space in
  Cache.close c1;
  (* A fresh cache instance reads the flushed store and serves hits with
     bit-identical metrics (floats round-trip through the JSON). *)
  let c2 = Cache.create ~path () in
  Alcotest.(check int) "persisted entries" 1 (Cache.length c2);
  Alcotest.(check (list string)) "clean load" [] (Cache.load_warnings c2);
  let r2 = Explore.run ~workers:1 ~cache:c2 g space in
  Cache.close c2;
  Alcotest.(check bool) "all from disk" true
    (List.for_all (fun p -> p.Explore.from_cache) r2.Explore.points);
  Alcotest.(check bool) "metrics bit-identical" true
    (List.map (fun p -> p.Explore.metrics) r1.Explore.points
    = List.map (fun p -> p.Explore.metrics) r2.Explore.points);
  Sys.remove path

(* The on-disk bytes: one journal line and the compacted store, as
   written by [journal] and [flush], and read back by a fresh cache. *)
let golden_metrics =
  {
    Cache.m_flow = "optimized";
    m_latency = 3;
    m_cycle_delta = 4;
    m_cycle_ns = 0.1;
    m_execution_ns = 7.5;
    m_op_count = 6;
    m_fragment_count = 9;
    m_fu_gates = 120;
    m_register_gates = 48;
    m_mux_gates = 16;
    m_controller_gates = 10;
    m_total_gates = 194;
  }

let golden_metrics_json =
  {|{"flow":"optimized","latency":3,"cycle_delta":4,"cycle_ns":0.10000000000000001,"execution_ns":7.5,"op_count":6,"fragment_count":9,"fu_gates":120,"register_gates":48,"mux_gates":16,"controller_gates":10,"total_gates":194}|}

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_cache_journal_golden () =
  let path = Filename.temp_file "dse-journal" ".json" in
  let c = Cache.create ~path () in
  Cache.add c "k1" golden_metrics;
  Cache.journal c;
  Alcotest.(check string) "journal line"
    ({|{"k":"k1","m":|} ^ golden_metrics_json ^ "}\n")
    (read_file (path ^ ".wal"));
  Cache.release c;
  (* A fresh cache replays the journal line into the same record. *)
  let c = Cache.create ~path () in
  Alcotest.(check int) "replayed" 1 (Cache.recovered c);
  Alcotest.(check bool) "replayed metrics" true
    (Cache.find c "k1" = Some golden_metrics);
  Cache.close c;
  Alcotest.(check bool) "journal compacted" false (Sys.file_exists (path ^ ".wal"));
  Alcotest.(check string) "compacted store"
    "{\n  \"k1\": {\n    \"flow\": \"optimized\",\n    \"latency\": 3,\n    \"cycle_delta\": 4,\n    \"cycle_ns\": 0.10000000000000001,\n    \"execution_ns\": 7.5,\n    \"op_count\": 6,\n    \"fragment_count\": 9,\n    \"fu_gates\": 120,\n    \"register_gates\": 48,\n    \"mux_gates\": 16,\n    \"controller_gates\": 10,\n    \"total_gates\": 194\n  }\n}\n"
    (read_file path);
  Sys.remove path

(* A hand-built sweep document: every field of [Explore.to_json], with a
   degraded cache point, a timeout failure and a transform summary. *)
let test_explore_json_golden () =
  let job latency recipe =
    {
      Space.latency;
      policy = `Coalesced;
      lib_name = "cla";
      lib = Option.get (Space.lib_of_name "cla");
      balance = false;
      recipe;
      iterate = 2;
    }
  in
  let point =
    {
      Explore.job = job 4 "standard";
      metrics = golden_metrics;
      from_cache = true;
      degraded = true;
      attempts = 0;
      wall_s = 0.;
    }
  in
  let sweep =
    {
      Explore.graph_name = "fir8";
      digest = "abc";
      points = [ point ];
      failures =
        [
          {
            Explore.f_job = job 3 "none";
            f_class = Hls_util.Failure.Timeout 1.5;
            f_reason = "timed out after 1.50 s";
            f_attempts = 3;
          };
        ];
      frontier = [ point ];
      transforms =
        [
          {
            Explore.t_recipe = "standard";
            t_passes = 6;
            t_fired = 4;
            t_checks = 4;
            t_rejected = 1;
            t_nodes_before = 30;
            t_nodes_after = 27;
            t_depth_before = 8;
            t_depth_after = 6;
          };
        ];
      rounds = 2;
      wall_s = 1.25;
      cache_hits = 1;
      cache_misses = 1;
      recovered = 1;
      phases = [ ("xform.apply", 2, 0.5); ("sched.frag", 1, 0.25) ];
      counters = [ ("cache.hit", 1); ("cache.miss", 1) ];
      gauges = [ ("timing.levels", (3., 4.)) ];
    }
  in
  let job_json latency recipe =
    Printf.sprintf
      {|{"latency":%d,"policy":"coalesced","lib":"cla","balance":false,"recipe":"%s","iterate":2}|}
      latency recipe
  in
  let point_json =
    {|{"job":|} ^ job_json 4 "standard" ^ {|,"metrics":|} ^ golden_metrics_json
    ^ {|,"from_cache":true,"degraded":true,"attempts":0,"wall_s":0.0}|}
  in
  let golden =
    {|{"graph":"fir8","digest":"abc","rounds":2,"wall_s":1.25,"cache":{"hits":1,"misses":1,"recovered":1},"points":[|}
    ^ point_json ^ {|],"failures":[{"job":|} ^ job_json 3 "none"
    ^ {|,"failure":{"class":"timeout","seconds":1.5},"reason":"timed out after 1.50 s","attempts":3}],"frontier":[|}
    ^ point_json
    ^ {|],"transforms":[{"recipe":"standard","passes":6,"fired":4,"checks":4,"rejected":1,"nodes_before":30,"nodes_after":27,"depth_before":8,"depth_after":6}],"telemetry":{"extra_attempts":2,"phases":[{"name":"xform.apply","calls":2,"total_s":0.5},{"name":"sched.frag","calls":1,"total_s":0.25}],"counters":[{"name":"cache.hit","total":1},{"name":"cache.miss","total":1}],"gauges":[{"name":"timing.levels","last":3.0,"max":4.0}]}}|}
  in
  Alcotest.(check string) "explore document" golden
    (Json.to_string (Explore.to_json sweep));
  match Result.bind (Json.of_string golden) Explore.of_json with
  | Error m -> Alcotest.failf "golden document did not decode: %s" m
  | Ok back ->
      Alcotest.(check string) "decodes back" golden
        (Json.to_string (Explore.to_json back))

(* ------------------------------------------------------------------ *)
(* Pareto.                                                             *)

let test_pareto_frontier () =
  let mk cycle_ns area_gates latency =
    { Pareto.cycle_ns; area_gates; latency }
  in
  let id x = x in
  (* Hand-built set: a dominates b; c trades cycle for area with a;
     d duplicates a's objectives; e is dominated by c. *)
  let a = mk 2.0 100 3
  and b = mk 2.5 120 3
  and c = mk 1.5 150 3
  and d = mk 2.0 100 3
  and e = mk 1.5 160 4 in
  Alcotest.(check bool) "a dominates b" true (Pareto.dominates a b);
  Alcotest.(check bool) "b not dominates a" false (Pareto.dominates b a);
  Alcotest.(check bool) "no self-domination" false (Pareto.dominates a a);
  Alcotest.(check bool) "ties do not dominate" false (Pareto.dominates a d);
  let front = Pareto.frontier ~objectives:id [ a; b; c; d; e ] in
  Alcotest.(check int) "frontier size" 3 (List.length front);
  Alcotest.(check bool) "b excluded" true (not (List.mem b front));
  Alcotest.(check bool) "e excluded" true (not (List.mem e front));
  Alcotest.(check bool) "input order kept" true (front = [ a; c; d ]);
  (* Single point is always on the frontier; empty set is empty. *)
  Alcotest.(check int) "singleton" 1
    (List.length (Pareto.frontier ~objectives:id [ a ]));
  Alcotest.(check int) "empty" 0
    (List.length (Pareto.frontier ~objectives:id []))

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)

let test_pool_exception_isolation () =
  let jobs =
    [|
      (fun () -> 1);
      (fun () -> failwith "injected failure");
      (fun () -> 3);
      (fun () -> raise Exit);
      (fun () -> 5);
    |]
  in
  List.iter
    (fun workers ->
      let outcomes = Pool.run ~workers jobs in
      let tag = Printf.sprintf "workers=%d" workers in
      Alcotest.(check int) (tag ^ " results aligned") 5 (Array.length outcomes);
      Alcotest.(check (list int))
        (tag ^ " successes survive")
        [ 1; 3; 5 ]
        (Array.to_list outcomes |> List.filter_map Pool.outcome_ok);
      (match outcomes.(1) with
      | Pool.Failed f ->
          let m = Hls_util.Failure.to_string f in
          Alcotest.(check bool) (tag ^ " failure message") true
            (let needle = "injected" in
             let rec has i =
               i + String.length needle <= String.length m
               && (String.sub m i (String.length needle) = needle || has (i + 1))
             in
             has 0);
          Alcotest.(check string) (tag ^ " classified internal") "internal"
            (Hls_util.Failure.class_name f)
      | _ -> Alcotest.fail (tag ^ ": job 1 should have failed"));
      match outcomes.(3) with
      | Pool.Failed _ -> ()
      | _ -> Alcotest.fail (tag ^ ": job 3 should have failed"))
    [ 1; 2; 4 ]

let test_pool_timeout () =
  let jobs =
    [| (fun () -> 1); (fun () -> Unix.sleepf 5.0; 2); (fun () -> 3) |]
  in
  let outcomes = Pool.run ~workers:2 ~timeout_s:0.1 jobs in
  Alcotest.(check (list int)) "fast jobs complete" [ 1; 3 ]
    (Array.to_list outcomes |> List.filter_map Pool.outcome_ok);
  match outcomes.(1) with
  | Pool.Timed_out s -> Alcotest.(check bool) "deadline honoured" true (s >= 0.1)
  | _ -> Alcotest.fail "sleeping job should have timed out"

(* ------------------------------------------------------------------ *)
(* End-to-end.                                                         *)

(* A 2-point sweep on chain3 must reproduce the serial pipeline exactly:
   same metrics from Explore (any worker count) as from running
   Pipeline.optimized by hand at the same parameters. *)
let test_explore_matches_serial () =
  let g = Hls_workloads.Motivational.chain3 () in
  let latencies = [ 3; 6 ] in
  let space = make_space ~latencies () in
  let serial =
    List.map
      (fun latency ->
        Cache.metrics_of_report
          (match P.run_graph P.default_config g ~latency with
          | Ok r -> r.P.opt_report
          | Error f -> raise (Hls_util.Failure.Flow_failure f)))
      latencies
  in
  List.iter
    (fun workers ->
      let r = Explore.run ~workers g space in
      let tag = Printf.sprintf "workers=%d" workers in
      Alcotest.(check int) (tag ^ " all points") 2
        (List.length r.Explore.points);
      Alcotest.(check int) (tag ^ " no failures") 0
        (List.length r.Explore.failures);
      Alcotest.(check bool) (tag ^ " metrics identical to serial flow") true
        (List.map (fun p -> p.Explore.metrics) r.Explore.points = serial);
      Alcotest.(check bool) (tag ^ " non-empty frontier") true
        (r.Explore.frontier <> []);
      (* The JSON rendering — what `hlsopt explore --json` prints — is
         byte-identical across worker counts. *)
      (* Wall times (sweep- and per-point) are the only nondeterministic
         fields, so strip them everywhere in the tree. *)
      let rec strip_wall j =
        match j with
        | Json.Obj fields ->
            Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   if k = "wall_s" then None else Some (k, strip_wall v))
                 fields)
        | Json.List l -> Json.List (List.map strip_wall l)
        | j -> j
      in
      Alcotest.(check string) (tag ^ " json deterministic")
        (Json.to_string ~indent:true
           (strip_wall (Explore.to_json (Explore.run ~workers:1 g space))))
        (Json.to_string ~indent:true (strip_wall (Explore.to_json r))))
    [ 1; 4 ]

let test_explore_survives_infeasible () =
  (* The coalesced policy is infeasible at some elliptic latencies: the
     sweep must record those failures and keep the feasible points. *)
  let g = Hls_workloads.Benchmarks.elliptic () in
  let space =
    make_space ~latencies:[ 5; 6 ] ~policies:[ `Full; `Coalesced ] ()
  in
  let r = Explore.run ~workers:2 g space in
  Alcotest.(check int) "attempted = points + failures" 4
    (List.length r.Explore.points + List.length r.Explore.failures);
  Alcotest.(check bool) "full-policy points survive" true
    (List.exists (fun p -> p.Explore.job.Space.policy = `Full) r.Explore.points);
  Alcotest.(check bool) "frontier non-empty" true (r.Explore.frontier <> [])

let test_feedback_refines_latency () =
  let g = Hls_workloads.Motivational.chain3 () in
  let space = make_space ~latencies:[ 4 ] () in
  let r = Explore.run ~workers:1 ~feedback:1 g space in
  Alcotest.(check int) "two rounds ran" 2 r.Explore.rounds;
  let latencies =
    List.map (fun p -> p.Explore.job.Space.latency) r.Explore.points
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "frontier neighbours probed" [ 3; 4; 5 ]
    latencies

(* ------------------------------------------------------------------ *)
(* JSON round-trips.                                                   *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline");
        ("i", Json.Int (-42));
        ("f", Json.Float 5.2000000000000002);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 0.1; Json.Obj [] ]);
      ]
  in
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent v) with
      | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
      | Error m -> Alcotest.fail m)
    [ true; false ];
  (* Floats survive exactly, including awkward doubles. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
          Alcotest.(check bool) (string_of_float f) true
            (Int64.bits_of_float f = Int64.bits_of_float f')
      | _ -> Alcotest.fail "float did not parse back as float")
    [ 0.1; 1.0 /. 3.0; 5.2000000000000002; 1e-300; 12345678901234.0 ];
  match Json.of_string "{\"a\": [1, 2" with
  | Ok _ -> Alcotest.fail "truncated input should fail"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "space expansion" `Quick test_space_expansion;
    Alcotest.test_case "typed axis errors" `Quick test_space_axis_errors;
    Alcotest.test_case "recipe axis sweeps" `Quick test_recipe_axis;
    Alcotest.test_case "latency specs" `Quick test_parse_latencies;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache disk roundtrip" `Quick test_cache_disk_roundtrip;
    Alcotest.test_case "golden cache journal and store" `Quick
      test_cache_journal_golden;
    Alcotest.test_case "golden explore document" `Quick
      test_explore_json_golden;
    Alcotest.test_case "pareto frontier" `Quick test_pareto_frontier;
    Alcotest.test_case "pool isolates exceptions" `Quick
      test_pool_exception_isolation;
    Alcotest.test_case "pool per-job timeout" `Quick test_pool_timeout;
    Alcotest.test_case "explore = serial pipeline" `Quick
      test_explore_matches_serial;
    Alcotest.test_case "explore survives infeasible" `Quick
      test_explore_survives_infeasible;
    Alcotest.test_case "feedback refines latency" `Quick
      test_feedback_refines_latency;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
  ]
