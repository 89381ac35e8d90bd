(* lib/telemetry: the sink is inert until armed, balances spans across
   exceptions, exports well-formed Chrome trace JSON, and counts what the
   pool actually did under injected faults. *)

module Tm = Hls_telemetry
module Json = Hls_dse.Dse_json
module Faults = Hls_util.Faults

(* Every test leaves the global sink (and fault injection) as it found
   them: inert and empty. *)
let isolated f () =
  Tm.reset ();
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm ();
      Tm.disarm ();
      Tm.reset ())
    f

exception Boom

let test_disabled_noop () =
  Alcotest.(check bool) "starts disarmed" false (Tm.armed ());
  Alcotest.(check int) "with_span is identity" 41
    (Tm.with_span "phase" (fun () -> 41));
  Alcotest.(check bool) "exceptions pass through" true
    (match Tm.with_span "phase" (fun () -> raise Boom) with
    | exception Boom -> true
    | _ -> false);
  Tm.count "c";
  Tm.gauge "g" 1.0;
  Tm.event "e";
  Tm.name_track "t";
  Alcotest.(check (list (pair string (pair int (float 0.))))) "no spans" []
    (Tm.span_totals ());
  Alcotest.(check (list (pair string int))) "no counters" []
    (Tm.counter_totals ());
  Alcotest.(check (option (float 0.))) "no gauges" None (Tm.gauge_last "g");
  Alcotest.(check int) "no recorded events" 0
    (List.length (Tm.recorded_events ()));
  Alcotest.(check int) "no open spans" 0 (Tm.open_spans ())

let test_nesting_balance_under_exceptions () =
  Tm.arm ~trace:true ~metrics:true ();
  let r =
    Tm.with_span "outer" (fun () ->
        Tm.with_span "inner" (fun () -> 2) + 1)
  in
  Alcotest.(check int) "nested result" 3 r;
  (match
     Tm.with_span "outer" (fun () ->
         Tm.with_span "inner" (fun () -> raise Boom))
   with
  | exception Boom -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "spans balanced after raise" 0 (Tm.open_spans ());
  let totals = Tm.span_totals () in
  let calls name =
    match List.assoc_opt name totals with Some (c, _) -> c | None -> 0
  in
  (* The raising pair still closed: Fun.protect records the span on the
     way out. *)
  Alcotest.(check int) "outer closed twice" 2 (calls "outer");
  Alcotest.(check int) "inner closed twice" 2 (calls "inner");
  List.iter
    (fun (name, (_, secs)) ->
      Alcotest.(check bool) (name ^ " duration non-negative") true (secs >= 0.))
    totals;
  (* Trace side: one 'X' event per span close, children before parents
     (a child closes first). *)
  let xs = List.filter (fun (n, _) -> n <> "thread_name") (Tm.recorded_events ()) in
  Alcotest.(check (list string)) "close order, oldest first"
    [ "inner"; "outer"; "inner"; "outer" ]
    (List.map fst xs)

let test_chrome_json_well_formed () =
  Tm.arm ~trace:true ~metrics:true ();
  Tm.name_track "main";
  Tm.with_span ~attrs:[ ("k", Tm.Str "v\"quoted\""); ("n", Tm.Int 3) ] "alpha"
    (fun () -> Tm.with_span "beta" (fun () -> ()));
  Tm.count ~n:2 "hits";
  Tm.gauge "depth" 4.5;
  Tm.event ~attrs:[ ("round", Tm.Int 1) ] "retry-round";
  let d =
    Domain.spawn (fun () ->
        Tm.name_track "worker";
        Tm.with_span "gamma" (fun () -> ()))
  in
  Domain.join d;
  let j =
    match Json.of_string (Tm.chrome_trace ()) with
    | Ok j -> j
    | Error m -> Alcotest.fail ("trace does not parse: " ^ m)
  in
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str k e = Option.bind (Json.member k e) Json.to_str in
  let tids = Hashtbl.create 7 in
  List.iter
    (fun e ->
      Alcotest.(check bool) "event has name" true (str "name" e <> None);
      Alcotest.(check bool) "event has ph" true (str "ph" e <> None);
      Alcotest.(check bool) "event has numeric ts" true
        (Option.bind (Json.member "ts" e) Json.to_float <> None);
      (match Option.bind (Json.member "tid" e) Json.to_int with
      | Some t -> Hashtbl.replace tids t ()
      | None -> Alcotest.fail "event without integer tid");
      if str "ph" e = Some "X" then
        match Option.bind (Json.member "dur" e) Json.to_float with
        | Some d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.)
        | None -> Alcotest.fail "X event without dur")
    events;
  let names ph =
    List.filter_map
      (fun e -> if str "ph" e = Some ph then str "name" e else None)
      events
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("span " ^ n ^ " present") true
        (List.mem n (names "X")))
    [ "alpha"; "beta"; "gamma" ];
  Alcotest.(check bool) "counter events present" true
    (List.mem "hits" (names "C") && List.mem "depth" (names "C"));
  Alcotest.(check bool) "instant event present" true
    (List.mem "retry-round" (names "i"));
  Alcotest.(check int) "thread_name metadata for both tracks" 2
    (List.length (names "M"));
  Alcotest.(check bool) "two distinct tracks" true (Hashtbl.length tids >= 2)

let test_pool_counters_under_faults () =
  Tm.arm ~trace:true ~metrics:true ();
  (* Job 0 raises on its first execution and every job is delayed 1 ms,
     so a 2-worker retry run must record 5 job-span closes (4 jobs + 1
     retry), 1 pool.retries tick, and a retry-round instant. *)
  Faults.arm
    { Faults.inert with
      fail_job = Some (0, 1);
      delay_job = (Some (None, 0.001));
    };
  let work = Array.init 4 (fun i () -> Tm.count "test.work"; i * 10) in
  let retry = Hls_pool.Retry_policy.make ~attempts:3 ~backoff_s:0. () in
  let out = Hls_pool.run_retry ~workers:2 ~retry work in
  Array.iteri
    (fun i (o, attempts) ->
      match o with
      | Hls_pool.Done v ->
          Alcotest.(check int) (Printf.sprintf "job %d result" i) (i * 10) v;
          Alcotest.(check int)
            (Printf.sprintf "job %d attempts" i)
            (if i = 0 then 2 else 1)
            attempts
      | _ -> Alcotest.fail (Printf.sprintf "job %d did not finish" i))
    out;
  (* The injected raise fires before the job body, so the body ran
     exactly four times; the job span closed five times (the failed
     attempt still closes through Fun.protect). *)
  Alcotest.(check int) "work bodies run" 4 (Tm.counter_total "test.work");
  (match List.assoc_opt "job" (Tm.span_totals ()) with
  | Some (closes, secs) ->
      Alcotest.(check int) "job span closes" 5 closes;
      Alcotest.(check bool) "delays visible in span time" true (secs >= 0.005)
  | None -> Alcotest.fail "no job span recorded");
  Alcotest.(check int) "one retry tick" 1 (Tm.counter_total "pool.retries");
  Alcotest.(check bool) "retry-round event recorded" true
    (List.exists (fun (n, _) -> n = "retry-round") (Tm.recorded_events ()));
  Alcotest.(check int) "spans balanced" 0 (Tm.open_spans ())

let test_explore_wall_and_order () =
  (* Per-point wall_s: computed points cost time, cache hits are free;
     points come back sorted on the full job key either way. *)
  let g = Hls_workloads.Motivational.chain3 () in
  let space =
    Test_dse.make_space ~latencies:[ 4; 3 ] ~balance:[ true; false ] ()
  in
  let cache = Hls_dse.Cache.create () in
  let sorted r =
    let keys = List.map (fun p -> p.Hls_dse.Explore.job) r.Hls_dse.Explore.points in
    keys = List.stable_sort Hls_dse.Space.compare_job keys
  in
  let first = Hls_dse.Explore.run ~workers:2 ~cache g space in
  Alcotest.(check int) "four points" 4
    (List.length first.Hls_dse.Explore.points);
  Alcotest.(check bool) "first run sorted" true (sorted first);
  List.iter
    (fun p ->
      Alcotest.(check bool) "computed point timed" true
        ((not p.Hls_dse.Explore.from_cache) && p.Hls_dse.Explore.wall_s >= 0.))
    first.Hls_dse.Explore.points;
  let second = Hls_dse.Explore.run ~workers:2 ~cache g space in
  Alcotest.(check bool) "second run sorted" true (sorted second);
  List.iter
    (fun p ->
      Alcotest.(check bool) "cache hit costs nothing" true
        (p.Hls_dse.Explore.from_cache && p.Hls_dse.Explore.wall_s = 0.))
    second.Hls_dse.Explore.points;
  Hls_dse.Cache.close cache;
  (* Phases ride the report only when the sink is armed. *)
  Alcotest.(check bool) "no phases when disarmed" true
    (first.Hls_dse.Explore.phases = []);
  Tm.arm ~metrics:true ();
  let armed = Hls_dse.Explore.run ~workers:1 g space in
  let phase_names = List.map (fun (n, _, _) -> n) armed.Hls_dse.Explore.phases in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("phase " ^ n ^ " measured") true
        (List.mem n phase_names))
    [ "kernel"; "bitnet"; "arrival"; "mobility"; "fragment"; "schedule";
      "bind" ]

(* The trace buffer keeps the first [max_events] events and counts the
   rest; the executor's [stats] answer reports the count, and a reset
   clears it. *)
let test_trace_buffer_capped () =
  Tm.arm ~trace:true ~metrics:false ();
  let extra = 7 in
  for _ = 1 to Tm.max_events + extra do
    Tm.event "e"
  done;
  Alcotest.(check int) "buffer holds the cap" Tm.max_events
    (List.length (Tm.recorded_events ()));
  Alcotest.(check int) "overflow counted" extra (Tm.dropped_events ());
  (* Disarmed, so answering [stats] records (and drops) nothing more. *)
  Tm.disarm ();
  let exec = Hls_api.Exec.create () in
  (match
     Fun.protect
       ~finally:(fun () -> Hls_api.Exec.close exec)
       (fun () -> Hls_api.Exec.run exec Hls_api.Request.Stats)
   with
  | Ok (Hls_api.Response.Stats { st_gauges; _ }) ->
      Alcotest.(check (option int)) "stats gauge" (Some extra)
        (List.assoc_opt "trace_dropped" st_gauges)
  | _ -> Alcotest.fail "stats answered another payload");
  Tm.reset ();
  Alcotest.(check int) "reset clears the count" 0 (Tm.dropped_events ());
  Tm.arm ~trace:true ~metrics:false ();
  Tm.event "e";
  Alcotest.(check int) "records again" 1 (List.length (Tm.recorded_events ()))

let suite =
  [
    Alcotest.test_case "disabled sink is a no-op" `Quick
      (isolated test_disabled_noop);
    Alcotest.test_case "span nesting balances under exceptions" `Quick
      (isolated test_nesting_balance_under_exceptions);
    Alcotest.test_case "chrome trace JSON is well-formed" `Quick
      (isolated test_chrome_json_well_formed);
    Alcotest.test_case "pool counters under injected faults" `Quick
      (isolated test_pool_counters_under_faults);
    Alcotest.test_case "explore wall times and row order" `Quick
      (isolated test_explore_wall_and_order);
    Alcotest.test_case "trace buffer capped" `Quick
      (isolated test_trace_buffer_capped);
  ]
