(* Resilience of the DSE engine under injected faults: retry/backoff
   recovery, fail-fast on infeasible points, graceful degradation to the
   direct flow, WAL replay after a simulated crash, corrupt/truncated
   store tolerance, and advisory-lock contention. *)

module P = Hls_core.Pipeline
module Space = Hls_dse.Space
module Cache = Hls_dse.Cache
module Pool = Hls_pool
module Explore = Hls_dse.Explore
module F = Hls_util.Faults
module Failure = Hls_util.Failure

(* Every test that arms a fault disarms it on the way out, pass or
   fail — faults are process-global. *)
let with_faults spec body =
  Fun.protect ~finally:F.disarm (fun () ->
      F.arm spec;
      body ())

let temp_store () =
  let path = Filename.temp_file "dse-faults" ".json" in
  path

let remove_if p = if Sys.file_exists p then Sys.remove p

let cleanup_store path =
  List.iter remove_if [ path; path ^ ".wal"; path ^ ".tmp"; path ^ ".lock" ]

(* ------------------------------------------------------------------ *)
(* Pool-level retry.                                                   *)

let test_pool_retry_recovers () =
  with_faults { F.inert with F.fail_job = Some (1, 2) } @@ fun () ->
  let jobs = [| (fun () -> 10); (fun () -> 20); (fun () -> 30) |] in
  let retry = Pool.Retry_policy.make ~attempts:4 ~backoff_s:0.001 () in
  let out = Pool.run_retry ~workers:2 ~retry jobs in
  Alcotest.(check bool) "job 0 first try" true (out.(0) = (Pool.Done 10, 1));
  Alcotest.(check bool) "job 2 first try" true (out.(2) = (Pool.Done 30, 1));
  (* Job 1 was injected to fail twice: two retries consume the fault and
     the third attempt lands. *)
  Alcotest.(check bool) "job 1 recovered on 3rd attempt" true
    (out.(1) = (Pool.Done 20, 3))

let test_pool_retry_exhausted () =
  with_faults { F.inert with F.fail_job = Some (0, 1000) } @@ fun () ->
  let retry = Pool.Retry_policy.make ~attempts:3 ~backoff_s:0.001 () in
  let out = Pool.run_retry ~workers:2 ~retry [| (fun () -> 1) |] in
  match out.(0) with
  | Pool.Failed f, attempts ->
      Alcotest.(check int) "all attempts consumed" 3 attempts;
      Alcotest.(check string) "classified internal" "internal"
        (Failure.class_name f)
  | _ -> Alcotest.fail "permanently failing job should be Failed"

(* Satellite regression: a timeout must be honoured even for a single
   job, as long as a second domain is available to observe it. *)
let test_pool_single_job_timeout () =
  let out =
    Pool.run ~workers:4 ~timeout_s:0.1 [| (fun () -> Unix.sleepf 5.0; 1) |]
  in
  match out.(0) with
  | Pool.Timed_out s ->
      Alcotest.(check bool) "deadline honoured" true (s >= 0.1)
  | _ -> Alcotest.fail "single sleeping job should time out"

let test_retry_policy_backoff () =
  let p = Pool.Retry_policy.make ~backoff_s:0.1 ~max_backoff_s:1.0 () in
  let d1 = Pool.Retry_policy.delay_s p ~attempt:1 ~job:7 in
  (* Deterministic: the same (attempt, job) always backs off identically. *)
  Alcotest.(check (float 0.0)) "deterministic jitter" d1
    (Pool.Retry_policy.delay_s p ~attempt:1 ~job:7);
  List.iter
    (fun attempt ->
      let d = Pool.Retry_policy.delay_s p ~attempt ~job:3 in
      let base =
        min 1.0 (0.1 *. (2.0 ** float_of_int (attempt - 1)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within jitter band" attempt)
        true
        (d >= base *. 0.75 -. 1e-9 && d <= base *. 1.25 +. 1e-9))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "infeasible never retried" false
    (Pool.Retry_policy.should_retry p ~attempt:1 (Failure.Infeasible "x"));
  Alcotest.(check bool) "timeout retried" true
    (Pool.Retry_policy.should_retry p ~attempt:1 (Failure.Timeout 0.1))

(* ------------------------------------------------------------------ *)
(* Explore under faults.                                               *)

let test_explore_retry_recovers () =
  with_faults { F.inert with F.fail_job = Some (0, 1) } @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3; 4 ] () in
  let retry = Pool.Retry_policy.make ~attempts:3 ~backoff_s:0.001 () in
  let r = Explore.run ~workers:2 ~retry g space in
  Alcotest.(check int) "both points survive" 2 (List.length r.Explore.points);
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  let attempts =
    List.map (fun p -> p.Explore.attempts) r.Explore.points
  in
  Alcotest.(check (list int)) "faulted job took one retry" [ 2; 1 ] attempts;
  (* The recovered point's metrics are the real optimized flow's. *)
  let p0 = List.hd r.Explore.points in
  Alcotest.(check bool) "not degraded" false p0.Explore.degraded;
  Alcotest.(check string) "optimized flow" "optimized"
    p0.Explore.metrics.Cache.m_flow

let test_explore_exhausted_reported () =
  with_faults { F.inert with F.fail_job = Some (0, 1000) } @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3; 4 ] () in
  let retry = Pool.Retry_policy.make ~attempts:2 ~backoff_s:0.001 () in
  let r = Explore.run ~workers:2 ~retry g space in
  Alcotest.(check int) "one point lost" 1 (List.length r.Explore.points);
  match r.Explore.failures with
  | [ f ] ->
      Alcotest.(check int) "attempts exhausted" 2 f.Explore.f_attempts;
      Alcotest.(check string) "classified internal" "internal"
        (Failure.class_name f.Explore.f_class);
      Alcotest.(check int) "the faulted job" 3 f.Explore.f_job.Space.latency
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

let test_explore_infeasible_fails_fast () =
  (* Retries must not be wasted on permanently infeasible points. *)
  let g = Hls_workloads.Benchmarks.elliptic () in
  let space =
    Test_dse.make_space ~latencies:[ 5; 6 ] ~policies:[ `Full; `Coalesced ] ()
  in
  let retry = Pool.Retry_policy.make ~attempts:4 ~backoff_s:0.001 () in
  let r = Explore.run ~workers:2 ~retry g space in
  Alcotest.(check bool) "some points infeasible" true
    (r.Explore.failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) "classified infeasible" "infeasible"
        (Failure.class_name f.Explore.f_class);
      Alcotest.(check int) "no retry burned" 1 f.Explore.f_attempts)
    r.Explore.failures

let test_explore_degrades_on_failure () =
  with_faults { F.inert with F.fail_job = Some (0, 1000) } @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3; 4 ] () in
  let cache = Cache.create () in
  let r = Explore.run ~workers:2 ~cache ~degrade:true g space in
  Alcotest.(check int) "both points survive" 2 (List.length r.Explore.points);
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  let degraded, healthy =
    List.partition (fun p -> p.Explore.degraded) r.Explore.points
  in
  (match degraded with
  | [ p ] ->
      Alcotest.(check int) "faulted point degraded" 3 p.Explore.job.Space.latency;
      Alcotest.(check string) "direct-flow metrics" "conventional"
        p.Explore.metrics.Cache.m_flow
  | _ -> Alcotest.fail "exactly one point should be degraded");
  (match healthy with
  | [ p ] ->
      Alcotest.(check string) "other point optimized" "optimized"
        p.Explore.metrics.Cache.m_flow
  | _ -> Alcotest.fail "exactly one healthy point expected");
  (* Degraded metrics are never cached: the cache holds only the healthy
     point, so a later un-faulted sweep recomputes the real one. *)
  Alcotest.(check int) "degraded point not cached" 1 (Cache.length cache);
  F.disarm ();
  let r2 = Explore.run ~workers:1 ~cache g space in
  Alcotest.(check bool) "recomputed point is optimized" true
    (List.for_all
       (fun p -> p.Explore.metrics.Cache.m_flow = "optimized")
       r2.Explore.points)

let test_explore_degrades_on_timeout () =
  with_faults { F.inert with F.delay_job = Some (Some 0, 1.0) } @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3; 4 ] () in
  let r = Explore.run ~workers:2 ~timeout_s:0.15 ~degrade:true g space in
  Alcotest.(check int) "both points survive" 2 (List.length r.Explore.points);
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  let p0 = List.hd r.Explore.points in
  Alcotest.(check bool) "timed-out point degraded" true p0.Explore.degraded;
  Alcotest.(check string) "fell back to the direct flow" "conventional"
    p0.Explore.metrics.Cache.m_flow;
  Alcotest.(check bool) "frontier still computed" true
    (r.Explore.frontier <> [])

(* ------------------------------------------------------------------ *)
(* Crash-safe cache: WAL replay, damage tolerance, locking.            *)

(* Simulated death between journal write and compaction: entries are in
   the WAL, the store was never rewritten, the process is gone.  A fresh
   open must replay everything and the resumed sweep must match an
   uninterrupted one. *)
let test_wal_replay_after_death () =
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> cleanup_store path) @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3; 4 ] () in
  let reference = Explore.run ~workers:1 g space in
  let digest = Cache.graph_digest g in
  let c = Cache.create ~path () in
  List.iter
    (fun p ->
      Cache.add c
        (Cache.key ~graph_digest:digest
           ~job_key:(Space.job_key p.Explore.job))
        p.Explore.metrics)
    reference.Explore.points;
  Cache.journal c;
  Cache.release c;
  (* died here: journal written, store never compacted *)
  Alcotest.(check bool) "WAL left behind" true
    (Sys.file_exists (path ^ ".wal"));
  let c2 = Cache.create ~path () in
  Alcotest.(check int) "entries recovered" 2 (Cache.recovered c2);
  Alcotest.(check int) "cache repopulated" 2 (Cache.length c2);
  Alcotest.(check (list string)) "clean replay" [] (Cache.load_warnings c2);
  let resumed = Explore.run ~workers:1 ~cache:c2 g space in
  Cache.close c2;
  Alcotest.(check bool) "nothing recomputed" true
    (List.for_all (fun p -> p.Explore.from_cache) resumed.Explore.points);
  Alcotest.(check bool) "frontier identical to uninterrupted run" true
    (List.map (fun p -> (p.Explore.job, p.Explore.metrics))
       resumed.Explore.frontier
    = List.map (fun p -> (p.Explore.job, p.Explore.metrics))
        reference.Explore.frontier);
  Alcotest.(check bool) "WAL compacted away" false
    (Sys.file_exists (path ^ ".wal"))

(* A crash mid-append leaves a truncated final WAL line: tolerated
   silently.  Wholesale WAL garbage is reported. *)
let test_wal_truncated_tail () =
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> cleanup_store path) @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3 ] () in
  let reference = Explore.run ~workers:1 g space in
  let digest = Cache.graph_digest g in
  let c = Cache.create ~path () in
  List.iter
    (fun p ->
      Cache.add c
        (Cache.key ~graph_digest:digest
           ~job_key:(Space.job_key p.Explore.job))
        p.Explore.metrics)
    reference.Explore.points;
  Cache.journal c;
  Cache.release c;
  let append s =
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 (path ^ ".wal")
    in
    output_string oc s;
    close_out oc
  in
  append "{\"k\":\"deadbeef\",\"m\":{\"fl";
  let c2 = Cache.create ~path () in
  Alcotest.(check int) "good entry recovered" 1 (Cache.recovered c2);
  Alcotest.(check (list string)) "single torn line tolerated silently" []
    (Cache.load_warnings c2);
  Cache.release c2;
  append "ow\ntotal garbage line\n";
  let c3 = Cache.create ~path () in
  Alcotest.(check int) "good entry still recovered" 1 (Cache.recovered c3);
  Alcotest.(check bool) "repeated damage reported" true
    (Cache.load_warnings c3 <> []);
  Cache.release c3

let test_cache_garbage_store () =
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> cleanup_store path) @@ fun () ->
  let oc = open_out path in
  output_string oc "this is not json {{{";
  close_out oc;
  let c = Cache.create ~path () in
  Alcotest.(check bool) "damage reported" true (Cache.load_warnings c <> []);
  Alcotest.(check int) "starts empty" 0 (Cache.length c);
  (* The sweep proceeds regardless, recomputing everything. *)
  let g = Hls_workloads.Motivational.chain3 () in
  let r =
    Explore.run ~workers:1 ~cache:c g (Test_dse.make_space ~latencies:[ 3 ] ())
  in
  Cache.close c;
  Alcotest.(check int) "sweep recomputes" 1 (List.length r.Explore.points);
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures)

let test_cache_corrupt_writes () =
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> cleanup_store path) @@ fun () ->
  let g = Hls_workloads.Motivational.chain3 () in
  let space = Test_dse.make_space ~latencies:[ 3 ] () in
  with_faults { F.inert with F.corrupt_writes = true } (fun () ->
      let c = Cache.create ~path () in
      let r = Explore.run ~workers:1 ~cache:c g space in
      Cache.close c;
      Alcotest.(check int) "sweep itself unharmed" 1
        (List.length r.Explore.points));
  (* The store on disk was garbled on the way out; the next open reports
     the damage and the sweep silently recomputes. *)
  let c2 = Cache.create ~path () in
  Alcotest.(check bool) "corruption detected on reload" true
    (Cache.load_warnings c2 <> []);
  let r2 = Explore.run ~workers:1 ~cache:c2 g space in
  Cache.close c2;
  Alcotest.(check int) "recomputed" 1 (List.length r2.Explore.points);
  Alcotest.(check bool) "recomputed, not served stale" true
    (List.for_all (fun p -> not p.Explore.from_cache) r2.Explore.points)

let test_lock_contention () =
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> cleanup_store path) @@ fun () ->
  let c1 = Cache.create ~path () in
  (match Cache.create ~path () with
  | exception Cache.Locked lp ->
      Alcotest.(check string) "lock path reported" (path ^ ".lock") lp
  | _ -> Alcotest.fail "second open of a live store must be refused");
  Cache.close c1;
  (* Released: the store can be taken over. *)
  let c2 = Cache.create ~path () in
  Cache.close c2;
  (* A lock left by a dead process is stale and reclaimed silently. *)
  let oc = open_out (path ^ ".lock") in
  output_string oc "99999999";
  close_out oc;
  let c3 = Cache.create ~path () in
  Alcotest.(check (list string)) "stale lock reclaimed" []
    (Cache.load_warnings c3);
  Cache.close c3

let test_arm_from_env () =
  Fun.protect ~finally:F.disarm @@ fun () ->
  let var = "HLS_FAULTS_TEST" in
  Unix.putenv var "fail-job=2:3,delay-job=0.5,corrupt-writes";
  F.arm_from_env ~var ();
  Alcotest.(check bool) "armed" true (F.armed ());
  F.disarm ();
  Alcotest.(check bool) "disarmed" false (F.armed ());
  Unix.putenv var "no-such-fault";
  (match F.arm_from_env ~var () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown fault term must be rejected");
  Unix.putenv var ""

let suite =
  [
    Alcotest.test_case "pool: retry recovers transient fault" `Quick
      test_pool_retry_recovers;
    Alcotest.test_case "pool: exhausted retries reported" `Quick
      test_pool_retry_exhausted;
    Alcotest.test_case "pool: single-job timeout honoured" `Quick
      test_pool_single_job_timeout;
    Alcotest.test_case "retry policy: backoff and fail-fast" `Quick
      test_retry_policy_backoff;
    Alcotest.test_case "explore: transient fault retried to a point" `Quick
      test_explore_retry_recovers;
    Alcotest.test_case "explore: exhausted retries reported" `Quick
      test_explore_exhausted_reported;
    Alcotest.test_case "explore: infeasible fails fast" `Quick
      test_explore_infeasible_fails_fast;
    Alcotest.test_case "explore: degrades failed point to direct flow" `Quick
      test_explore_degrades_on_failure;
    Alcotest.test_case "explore: degrades timed-out point" `Quick
      test_explore_degrades_on_timeout;
    Alcotest.test_case "cache: WAL replay after simulated death" `Quick
      test_wal_replay_after_death;
    Alcotest.test_case "cache: truncated WAL tail tolerated" `Quick
      test_wal_truncated_tail;
    Alcotest.test_case "cache: garbage store starts fresh with warning" `Quick
      test_cache_garbage_store;
    Alcotest.test_case "cache: corrupted store detected on reload" `Quick
      test_cache_corrupt_writes;
    Alcotest.test_case "cache: advisory lock contention" `Quick
      test_lock_contention;
    Alcotest.test_case "faults: HLS_FAULTS parsing" `Quick test_arm_from_env;
  ]
