(* The versioned request/response surface: golden v1 wire strings,
   exact codec round-trips, the exit-code table, the Exec memoization
   and batch alignment, and an in-process concurrent server smoke
   (including injected faults reaching pooled requests). *)

module J = Hls_dse.Dse_json
module Req = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Render = Hls_api.Render
module F = Hls_util.Failure

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Golden v1 wire strings.  These are the protocol: changing any of
   them is a wire format break and must bump Request.version.          *)

let test_request_golden () =
  check "parse request"
    {|{"v":1,"id":"7","method":"parse","params":{"spec":{"builtin":"chain3"}}}|}
    (J.to_string (Req.to_json ~id:"7" (Req.Parse { spec = Req.Builtin "chain3" })));
  check "report request"
    {|{"v":1,"method":"report","params":{"spec":{"source":"x = a + b"},"latency":4,"config":{"lib":"ripple","policy":"full","balance":true,"transform":"none","verify":"off","iterate":0},"target_ns":2.5}}|}
    (J.to_string
       (Req.to_json
          (Req.Report
             {
               spec = Req.Source "x = a + b";
               latency = 4;
               config = Req.default_config;
               target_ns = Some 2.5;
             })));
  check "emit request"
    {|{"v":1,"id":"c","method":"emit","params":{"spec":{"builtin":"fir2"},"latency":3,"format":"verilog-tb","config":{"lib":"ripple","policy":"full","balance":true,"transform":"none","verify":"off","iterate":0}}}|}
    (J.to_string
       (Req.to_json ~id:"c"
          (Req.Emit
             {
               spec = Req.Builtin "fir2";
               latency = 3;
               format = Req.Verilog_tb;
               config = Req.default_config;
             })));
  check "transform request"
    {|{"v":1,"id":"t","method":"transform","params":{"spec":{"builtin":"fir2"},"recipe":"standard","verify":"every_pass"}}|}
    (J.to_string
       (Req.to_json ~id:"t"
          (Req.Transform
             {
               spec = Req.Builtin "fir2";
               recipe = "standard";
               verify = "every_pass";
             })));
  check "ping request with deadline"
    {|{"v":1,"id":"hc1","deadline_ms":1500.5,"method":"ping","params":{}}|}
    (J.to_string (Req.to_json ~id:"hc1" ~deadline_ms:1500.5 Req.Ping))

let test_response_golden () =
  check "usage error"
    {|{"v":1,"id":"1","ok":false,"error":{"class":"usage","message":"bad","exit_code":2,"retryable":false}}|}
    (Resp.to_string (Resp.fail ~id:"1" (Resp.Usage "bad")));
  check "unsupported version"
    {|{"v":1,"ok":false,"error":{"class":"unsupported-version","version":9,"message":"unsupported protocol version 9 (this side speaks 1)","exit_code":2,"retryable":false}}|}
    (Resp.to_string (Resp.fail (Resp.Unsupported_version 9)));
  check "overloaded"
    {|{"v":1,"id":"x","ok":false,"error":{"class":"overloaded","queued":8,"capacity":8,"message":"server overloaded (8 queued, capacity 8); retry later","exit_code":6,"retryable":true}}|}
    (Resp.to_string (Resp.fail ~id:"x" (Resp.Overloaded { queued = 8; capacity = 8 })));
  check "infeasible flow failure"
    {|{"v":1,"id":"9","ok":false,"error":{"class":"infeasible","message":"no placement","exit_code":3,"retryable":false}}|}
    (Resp.to_string (Resp.fail ~id:"9" (Resp.Failed (F.Infeasible "no placement"))));
  check "timeout flow failure"
    {|{"v":1,"ok":false,"error":{"class":"timeout","seconds":1.5,"exit_code":4,"retryable":true}}|}
    (Resp.to_string (Resp.fail (Resp.Failed (F.Timeout 1.5))));
  check "pong"
    {|{"v":1,"id":"p","ok":true,"result":{"kind":"pong","pid":42}}|}
    (Resp.to_string (Resp.ok ~id:"p" (Resp.Pong { pong_pid = 42 })));
  check "unavailable"
    {|{"v":1,"ok":false,"error":{"class":"unavailable","message":"no healthy backend","exit_code":8,"retryable":true}}|}
    (Resp.to_string (Resp.fail (Resp.Unavailable "no healthy backend")))

(* One golden request per verb the strings above leave out, with both
   spellings of every optional field. *)
let test_request_golden_verbs () =
  let req ?id r = J.to_string (Req.to_json ?id r) in
  let config =
    { Req.lib_name = "cla4"; policy = `Coalesced; balance = false;
      transform = "cleanup"; verify = "sampled"; iterate = 2 }
  in
  check "optimize request"
    {|{"v":1,"id":"o","method":"optimize","params":{"spec":{"source":"y = a + b"},"latency":2,"config":{"lib":"cla4","policy":"coalesced","balance":false,"transform":"cleanup","verify":"sampled","iterate":2},"vhdl":true}}|}
    (req ~id:"o"
       (Req.Optimize
          { spec = Req.Source "y = a + b"; latency = 2; config; vhdl = true }));
  check "schedule request"
    {|{"v":1,"method":"schedule","params":{"spec":{"file":"specs/a.spec"},"latency":3,"flow":"blc","config":{"lib":"ripple","policy":"full","balance":true,"transform":"none","verify":"off","iterate":0}}}|}
    (req
       (Req.Schedule
          {
            spec = Req.File "specs/a.spec";
            latency = 3;
            flow = Req.Blc;
            config = Req.default_config;
          }));
  check "explore request, defaults"
    {|{"v":1,"method":"explore","params":{"spec":{"builtin":"elliptic"},"latencies":[2,3,4,5,6],"policies":["full"],"libs":["ripple"],"balance":[true],"recipes":["none"],"iterates":[0],"verify":"off","feedback":0,"retries":1,"backoff_s":0.050000000000000003,"degrade":false}}|}
    (req
       (Req.Explore
          { spec = Req.Builtin "elliptic"; params = Req.default_explore_params }));
  check "explore request, jobs and timeout"
    {|{"v":1,"id":"e","method":"explore","params":{"spec":{"builtin":"fir8"},"latencies":[2,7],"policies":["full","coalesced"],"libs":["ripple","cla4"],"balance":[true,false],"recipes":["none","standard"],"iterates":[0,2],"verify":"sampled","jobs":2,"timeout_s":0.5,"feedback":1,"retries":3,"backoff_s":0.25,"degrade":true}}|}
    (req ~id:"e"
       (Req.Explore
          {
            spec = Req.Builtin "fir8";
            params =
              {
                Req.latencies = [ 2; 7 ];
                policies = [ `Full; `Coalesced ];
                lib_names = [ "ripple"; "cla4" ];
                balance_axis = [ true; false ];
                recipes = [ "none"; "standard" ];
                iterates = [ 0; 2 ];
                verify = "sampled";
                jobs = Some 2;
                timeout_s = Some 0.5;
                feedback = 1;
                retries = 3;
                backoff_s = 0.25;
                degrade = true;
              };
          }));
  check "simulate request"
    {|{"v":1,"method":"simulate","params":{"spec":{"builtin":"chain3"},"latency":3,"seed":42,"config":{"lib":"ripple","policy":"full","balance":true,"transform":"none","verify":"off","iterate":0},"vcd":true}}|}
    (req
       (Req.Simulate
          {
            spec = Req.Builtin "chain3";
            latency = 3;
            seed = 42;
            config = Req.default_config;
            vcd = true;
          }));
  check "iterate request"
    {|{"v":1,"method":"iterate","params":{"spec":{"builtin":"fir8"},"latency":14,"rounds":8,"config":{"lib":"ripple","policy":"full","balance":true,"transform":"none","verify":"off","iterate":0}}}|}
    (req
       (Req.Iterate
          {
            spec = Req.Builtin "fir8";
            latency = 14;
            rounds = 8;
            config = Req.default_config;
          }));
  check "stats request" {|{"v":1,"id":"s","method":"stats","params":{}}|}
    (req ~id:"s" Req.Stats);
  check "workloads request" {|{"v":1,"method":"workloads","params":{}}|}
    (req (Req.Workloads { tag = None }));
  check "workloads request, tag"
    {|{"v":1,"method":"workloads","params":{"tag":"dsp"}}|}
    (req (Req.Workloads { tag = Some "dsp" }));
  check "fuzz request"
    {|{"v":1,"method":"fuzz","params":{"seed":7,"budget":210,"lanes":["spec","codec"],"dir":"_fuzz","max_seconds":120.0}}|}
    (req
       (Req.Fuzz
          {
            seed = 7;
            budget = 210;
            lanes = [ "spec"; "codec" ];
            dir = "_fuzz";
            max_seconds = 120.;
          }))

(* A small hand-built sweep: one point (also the frontier), one failure,
   one transform summary and one entry of every telemetry list. *)
let golden_metrics flow =
  {
    Hls_dse.Cache.m_flow = flow;
    m_latency = 3;
    m_cycle_delta = 4;
    m_cycle_ns = 2.5;
    m_execution_ns = 7.5;
    m_op_count = 6;
    m_fragment_count = 9;
    m_fu_gates = 120;
    m_register_gates = 48;
    m_mux_gates = 16;
    m_controller_gates = 10;
    m_total_gates = 194;
  }

let golden_sweep =
  let job latency =
    {
      Hls_dse.Space.latency;
      policy = `Full;
      lib_name = "ripple";
      lib = Option.get (Hls_dse.Space.lib_of_name "ripple");
      balance = true;
      recipe = "none";
      iterate = 0;
    }
  in
  let point =
    {
      Hls_dse.Explore.job = job 3;
      metrics = golden_metrics "optimized";
      from_cache = false;
      degraded = false;
      attempts = 2;
      wall_s = 0.125;
    }
  in
  {
    Hls_dse.Explore.graph_name = "chain3";
    digest = "d1";
    points = [ point ];
    failures =
      [
        {
          Hls_dse.Explore.f_job = job 2;
          f_class = F.Infeasible "no placement";
          f_reason = "no placement";
          f_attempts = 1;
        };
      ];
    frontier = [ point ];
    transforms = [];
    rounds = 1;
    wall_s = 0.5;
    cache_hits = 0;
    cache_misses = 2;
    recovered = 0;
    phases = [ ("sched.frag", 1, 0.25) ];
    counters = [ ("cache.miss", 2) ];
    gauges = [ ("timing.levels", (3., 4.)) ];
  }

(* One golden response per payload kind besides pong, with both the
   [null] and the present spelling of every optional field. *)
let test_response_golden_payloads () =
  let resp p = Resp.to_string (Resp.ok p) in
  let stats =
    {
      Resp.gs_name = "chain3";
      gs_inputs = 4;
      gs_outputs = 1;
      gs_nodes = 7;
      gs_ops = 3;
      gs_critical = 48;
    }
  in
  check "parse response"
    {|{"v":1,"ok":true,"result":{"kind":"parse","stats":{"name":"chain3","inputs":4,"outputs":1,"nodes":7,"ops":3,"critical":48},"pretty":"g"}}|}
    (resp (Resp.Parsed { stats; pretty = "g" }));
  check "optimize response"
    {|{"v":1,"ok":true,"result":{"kind":"optimize","critical":48,"cycle":16,"fragments":9,"text":"t"}}|}
    (resp (Resp.Optimized { critical = 48; cycle = 16; fragments = 9; text = "t" }));
  let report ~target ~equivalence =
    resp
      (Resp.Reported
         {
           Resp.r_stats = stats;
           r_latency = 3;
           r_target = target;
           r_conventional = golden_metrics "conventional";
           r_optimized = golden_metrics "optimized";
           r_equivalence = equivalence;
           r_saved_pct = 62.5;
         })
  in
  let metrics flow =
    Printf.sprintf
      {|{"flow":"%s","latency":3,"cycle_delta":4,"cycle_ns":2.5,"execution_ns":7.5,"op_count":6,"fragment_count":9,"fu_gates":120,"register_gates":48,"mux_gates":16,"controller_gates":10,"total_gates":194}|}
      flow
  in
  check "report response, no target"
    ({|{"v":1,"ok":true,"result":{"kind":"report","stats":{"name":"chain3","inputs":4,"outputs":1,"nodes":7,"ops":3,"critical":48},"latency":3,"target":null,"conventional":|}
    ^ metrics "conventional" ^ {|,"optimized":|} ^ metrics "optimized"
    ^ {|,"equivalence":null,"saved_pct":62.5}}|})
    (report ~target:None ~equivalence:None);
  check "report response, target and equivalence"
    ({|{"v":1,"ok":true,"result":{"kind":"report","stats":{"name":"chain3","inputs":4,"outputs":1,"nodes":7,"ops":3,"critical":48},"latency":3,"target":{"ns":4.0,"latency":2},"conventional":|}
    ^ metrics "conventional" ^ {|,"optimized":|} ^ metrics "optimized"
    ^ {|,"equivalence":"mismatch on y","saved_pct":62.5}}|})
    (report ~target:(Some (4.0, 2)) ~equivalence:(Some "mismatch on y"));
  check "schedule response, optimized"
    {|{"v":1,"ok":true,"result":{"kind":"schedule","flow":"optimized","latency":2,"rows":[{"cycle":1,"ops":["a","b"]},{"cycle":2,"ops":[]}],"profile":[{"cycle":1,"chain":16,"fragments":2,"adder_bits":8}],"used_delta":16,"cycle_delta":null,"gantt":[{"op":"a","cycles":[1,2]}]}}|}
    (resp
       (Resp.Scheduled
          {
            Resp.s_flow = Req.Optimized;
            s_latency = 2;
            s_rows =
              [
                { Resp.cr_cycle = 1; cr_ops = [ "a"; "b" ] };
                { Resp.cr_cycle = 2; cr_ops = [] };
              ];
            s_profile =
              [
                {
                  Resp.pr_cycle = 1;
                  pr_chain = 16;
                  pr_fragments = 2;
                  pr_adder_bits = 8;
                };
              ];
            s_used_delta = Some 16;
            s_cycle_delta = None;
            s_gantt = [ ("a", [ 1; 2 ]) ];
          }));
  check "schedule response, conventional"
    {|{"v":1,"ok":true,"result":{"kind":"schedule","flow":"conventional","latency":2,"rows":[],"profile":[],"used_delta":null,"cycle_delta":24,"gantt":[]}}|}
    (resp
       (Resp.Scheduled
          {
            Resp.s_flow = Req.Conventional;
            s_latency = 2;
            s_rows = [];
            s_profile = [];
            s_used_delta = None;
            s_cycle_delta = Some 24;
            s_gantt = [];
          }));
  check "explore response"
    ({|{"v":1,"ok":true,"result":{"kind":"explore","sweep":{"graph":"chain3","digest":"d1","rounds":1,"wall_s":0.5,"cache":{"hits":0,"misses":2,"recovered":0},"points":[{"job":{"latency":3,"policy":"full","lib":"ripple","balance":true,"recipe":"none","iterate":0},"metrics":|}
    ^ metrics "optimized"
    ^ {|,"from_cache":false,"degraded":false,"attempts":2,"wall_s":0.125}],"failures":[{"job":{"latency":2,"policy":"full","lib":"ripple","balance":true,"recipe":"none","iterate":0},"failure":{"class":"infeasible","message":"no placement"},"reason":"no placement","attempts":1}],"frontier":[{"job":{"latency":3,"policy":"full","lib":"ripple","balance":true,"recipe":"none","iterate":0},"metrics":|}
    ^ metrics "optimized"
    ^ {|,"from_cache":false,"degraded":false,"attempts":2,"wall_s":0.125}],"transforms":[],"telemetry":{"extra_attempts":1,"phases":[{"name":"sched.frag","calls":1,"total_s":0.25}],"counters":[{"name":"cache.miss","total":2}],"gauges":[{"name":"timing.levels","last":3.0,"max":4.0}]}}}}|})
    (resp (Resp.Explored golden_sweep));
  let entry verdict =
    {
      Resp.te_pass = "fold";
      te_fired = true;
      te_accepted = true;
      te_sites = 2;
      te_nodes_before = 9;
      te_nodes_after = 7;
      te_depth_before = 4;
      te_depth_after = 3;
      te_verdict = verdict;
    }
  in
  check "transform response"
    {|{"v":1,"ok":true,"result":{"kind":"transform","recipe":"fold","verify":"every_pass","before":{"name":"chain3","inputs":4,"outputs":1,"nodes":7,"ops":3,"critical":48},"after":{"name":"chain3","inputs":4,"outputs":1,"nodes":7,"ops":3,"critical":48},"checks":1,"rejected":0,"log":[{"pass":"fold","fired":true,"accepted":true,"sites":2,"nodes_before":9,"nodes_after":7,"depth_before":4,"depth_after":3,"verdict":null},{"pass":"fold","fired":true,"accepted":true,"sites":2,"nodes_before":9,"nodes_after":7,"depth_before":4,"depth_after":3,"verdict":"proved"}],"pretty":"p"}}|}
    (resp
       (Resp.Transformed
          {
            Resp.x_recipe = "fold";
            x_verify = "every_pass";
            x_before = stats;
            x_after = stats;
            x_checks = 1;
            x_rejected = 0;
            x_log = [ entry None; entry (Some "proved") ];
            x_pretty = "p";
          }));
  let simulate vcd =
    resp
      (Resp.Simulated
         {
           Resp.sim_latency = 3;
           sim_inputs = [ ("a", 5) ];
           sim_outputs = [ ("y", 12, 12) ];
           sim_vcd = vcd;
         })
  in
  check "simulate response, no vcd"
    {|{"v":1,"ok":true,"result":{"kind":"simulate","latency":3,"inputs":[{"name":"a","value":5}],"outputs":[{"name":"y","behavioural":12,"gate":12}],"vcd":null}}|}
    (simulate None);
  check "simulate response, vcd"
    {|{"v":1,"ok":true,"result":{"kind":"simulate","latency":3,"inputs":[{"name":"a","value":5}],"outputs":[{"name":"y","behavioural":12,"gate":12}],"vcd":"$end"}}|}
    (simulate (Some "$end"));
  check "emit response"
    {|{"v":1,"ok":true,"result":{"kind":"emit","format":"vhdl-netlist","text":"entity"}}|}
    (resp (Resp.Emitted { format = Req.Vhdl_netlist; text = "entity" }));
  check "iterate response"
    {|{"v":1,"ok":true,"result":{"kind":"iterate","initial_latency":14,"final_latency":12,"initial_delta":20,"final_delta":22,"saved_pct":12.5,"stop":"converged","rounds":[{"index":1,"target":13,"cap":22,"region":5,"region_adds":2,"pinned":true,"accepted":false,"latency":14,"delta":20}]}}|}
    (resp
       (Resp.Iterated
          {
            Resp.it_initial_latency = 14;
            it_final_latency = 12;
            it_initial_delta = 20;
            it_final_delta = 22;
            it_saved_pct = 12.5;
            it_stop = "converged";
            it_rounds =
              [
                {
                  Resp.ir_index = 1;
                  ir_target = 13;
                  ir_cap = 22;
                  ir_region = 5;
                  ir_region_adds = 2;
                  ir_pinned = true;
                  ir_accepted = false;
                  ir_latency = 14;
                  ir_delta = 20;
                };
              ];
          }));
  check "stats response"
    {|{"v":1,"ok":true,"result":{"kind":"stats","source":"exec","gauges":{"queue":0,"served":12}}}|}
    (resp
       (Resp.Stats
          { st_source = "exec"; st_gauges = [ ("queue", 0); ("served", 12) ] }));
  check "workloads response"
    {|{"v":1,"ok":true,"result":{"kind":"workloads","rows":[{"name":"fir8","kind":"builtin","tags":["dsp","fir"],"ops":15,"inputs":16,"latency":4}]}}|}
    (resp
       (Resp.Workloads
          [
            {
              Resp.w_name = "fir8";
              w_kind = "builtin";
              w_tags = [ "dsp"; "fir" ];
              w_ops = 15;
              w_inputs = 16;
              w_latency = 4;
            };
          ]));
  check "fuzz response"
    {|{"v":1,"ok":true,"result":{"kind":"fuzz","seed":7,"cases":210,"mismatches":0,"skipped":3,"coverage":41,"wall_s":1.25,"lanes":[{"lane":"spec","cases":70,"mismatches":0,"skipped":3,"repros":[{"path":"_fuzz/r1.spec","ops":4}]}]}}|}
    (resp
       (Resp.Fuzzed
          {
            Resp.fz_seed = 7;
            fz_cases = 210;
            fz_mismatches = 0;
            fz_skipped = 3;
            fz_coverage = 41;
            fz_wall_s = 1.25;
            fz_lanes =
              [
                {
                  Resp.fl_lane = "spec";
                  fl_cases = 70;
                  fl_mismatches = 0;
                  fl_skipped = 3;
                  fl_repros = [ ("_fuzz/r1.spec", 4) ];
                };
              ];
          }));
  check "resource flow failure"
    {|{"v":1,"ok":false,"error":{"class":"resource","message":"out of memory","exit_code":5,"retryable":true}}|}
    (Resp.to_string (Resp.fail (Resp.Failed (F.Resource "out of memory"))));
  check "internal flow failure"
    {|{"v":1,"ok":false,"error":{"class":"internal","message":"boom","exit_code":7,"retryable":true}}|}
    (Resp.to_string (Resp.fail (Resp.Failed (F.Internal (F.Remote "boom")))))

(* ------------------------------------------------------------------ *)
(* Request decoding: versioning, defaults, forward compatibility.      *)

let decode line =
  match Req.of_string line with
  | Ok (id, req) -> (id, req)
  | Error (`Usage m) -> Alcotest.failf "unexpected usage error: %s" m
  | Error (`Unsupported_version n) ->
      Alcotest.failf "unexpected version rejection: %d" n

let test_request_decode () =
  (* round-trip of every verb *)
  let reqs =
    [
      Req.Parse { spec = Req.Builtin "chain3" };
      Req.Optimize
        {
          spec = Req.Source "y = a + b";
          latency = 2;
          config = { Req.default_config with transform = "cleanup" };
          vhdl = true;
        };
      Req.Transform
        {
          spec = Req.Builtin "fir2";
          recipe = "repeat(fold,cse,dce)";
          verify = "sampled";
        };
      Req.Report
        {
          spec = Req.File "specs/foo.spec";
          latency = 5;
          config = { Req.default_config with lib_name = "cla4"; balance = false };
          target_ns = Some 3.25;
        };
      Req.Schedule
        {
          spec = Req.Builtin "fir2";
          latency = 3;
          flow = Req.Blc;
          config = Req.default_config;
        };
      Req.Explore
        {
          spec = Req.Builtin "elliptic";
          params =
            {
              Req.default_explore_params with
              latencies = [ 2; 7 ];
              policies = [ `Full; `Coalesced ];
              recipes = [ "none"; "standard" ];
              verify = "sampled";
              jobs = Some 2;
              timeout_s = Some 0.5;
              retries = 3;
              degrade = true;
            };
        };
      Req.Simulate
        {
          spec = Req.Builtin "chain3";
          latency = 3;
          seed = 42;
          config = Req.default_config;
          vcd = true;
        };
      Req.Emit
        {
          spec = Req.Builtin "chain3";
          latency = 3;
          format = Req.Vhdl_netlist;
          config = Req.default_config;
        };
      Req.Iterate
        {
          spec = Req.Builtin "fir8";
          latency = 4;
          rounds = 5;
          config = { Req.default_config with iterate = 5 };
        };
      Req.Stats;
      Req.Ping;
      Req.Workloads { tag = None };
      Req.Workloads { tag = Some "dsp" };
      Req.Fuzz
        {
          seed = 3;
          budget = 40;
          lanes = [ "codec" ];
          dir = "fz";
          max_seconds = 2.5;
        };
    ]
  in
  List.iter
    (fun req ->
      let id, back = decode (J.to_string (Req.to_json ~id:"i" req)) in
      check "id survives" "i" (Option.value id ~default:"<none>");
      check_bool (Req.method_name req ^ " round-trips") true (back = req))
    reqs

let test_request_versioning () =
  (match Req.of_string {|{"v":2,"method":"parse","params":{}}|} with
  | Error (`Unsupported_version 2) -> ()
  | _ -> Alcotest.fail "v:2 must be rejected as Unsupported_version");
  (match Req.of_string {|{"method":"parse","params":{}}|} with
  | Error (`Usage _) -> ()
  | _ -> Alcotest.fail "missing v must be a usage error");
  (match Req.of_string {|{"v":1,"method":"frobnicate","params":{}}|} with
  | Error (`Usage m) ->
      check_bool "names the method" true (contains ~affix:"frobnicate" m)
  | _ -> Alcotest.fail "unknown method must be a usage error");
  (match Req.of_string "{not json" with
  | Error (`Usage _) -> ()
  | _ -> Alcotest.fail "bad JSON must be a usage error");
  (* unknown params fields are ignored; missing optionals take defaults *)
  let _, req =
    decode
      {|{"v":1,"method":"report","params":{"spec":{"builtin":"chain3"},"future_field":[1,2],"latency":4}}|}
  in
  match req with
  | Req.Report { latency = 4; target_ns = None; config; _ } ->
      check_bool "defaulted config" true (config = Req.default_config)
  | _ -> Alcotest.fail "forward-compatible decode broke"

(* The envelope's transport fields: a wrong type is a usage error naming
   the field (an [id] dropped silently could not be matched by a
   pipelining client), and [null] spells absent. *)
let test_envelope_field_types () =
  let usage line =
    match Req.envelope_of_string line with
    | Error (`Usage m) -> m
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error (`Unsupported_version n) -> Alcotest.failf "version %d" n
  in
  check "integer id" {|"id" must be a string|}
    (usage {|{"v":1,"id":7,"method":"ping","params":{}}|});
  check "string deadline" {|"deadline_ms" must be a number|}
    (usage {|{"v":1,"id":"a","deadline_ms":"soon","method":"ping","params":{}}|});
  (match
     Req.envelope_of_string
       {|{"v":1,"id":null,"deadline_ms":null,"method":"ping","params":{}}|}
   with
  | Ok { Req.env_id = None; env_deadline_ms = None; env_req = Req.Ping } -> ()
  | _ -> Alcotest.fail "null id and deadline must decode as absent");
  (match
     Req.envelope_of_string
       {|{"v":1,"id":"a","deadline_ms":17,"method":"ping","params":{}}|}
   with
  | Ok { Req.env_id = Some "a"; env_deadline_ms = Some 17.; _ } -> ()
  | _ -> Alcotest.fail "integral deadline must decode as a number");
  (* the optional params fields without a default read null the same way *)
  match
    Req.of_string
      {|{"v":1,"method":"explore","params":{"spec":{"builtin":"x"},"jobs":null,"timeout_s":null}}|}
  with
  | Ok (_, Req.Explore { params = { Req.jobs = None; timeout_s = None; _ }; _ })
    -> ()
  | _ -> Alcotest.fail "null jobs and timeout_s must decode as absent"

(* Clients see these texts: one malformed field of each kind. *)
let test_usage_messages () =
  let usage line =
    match Req.of_string ({|{"v":1,"method":"|} ^ line ^ "}") with
    | Error (`Usage m) -> m
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error (`Unsupported_version n) -> Alcotest.failf "version %d" n
  in
  let spec = {|"spec":{"builtin":"chain3"}|} in
  check "int field" {|"latency" must be an integer|}
    (usage ({|report","params":{|} ^ spec ^ {|,"latency":"3"}|}));
  check "bool field" {|"vhdl" must be a boolean|}
    (usage ({|optimize","params":{|} ^ spec ^ {|,"vhdl":1}|}));
  check "string field" {|"recipe" must be a string|}
    (usage ({|transform","params":{|} ^ spec ^ {|,"recipe":null}|}));
  check "number field" {|"target_ns" must be a number|}
    (usage ({|report","params":{|} ^ spec ^ {|,"target_ns":"2"}|}));
  check "config string field" {|config "lib" must be a string|}
    (usage ({|report","params":{|} ^ spec ^ {|,"config":{"lib":4}}|}));
  check "config bool field" {|"balance" must be a boolean|}
    (usage ({|report","params":{|} ^ spec ^ {|,"config":{"balance":"no"}}|}));
  check "legacy cleanup field" {|"cleanup" must be a boolean|}
    (usage ({|report","params":{|} ^ spec ^ {|,"config":{"cleanup":1}}|}));
  check "list field" {|"latencies" must be an array|}
    (usage ({|explore","params":{|} ^ spec ^ {|,"latencies":3}|}));
  check "list element" {|bad element in "policies"|}
    (usage ({|explore","params":{|} ^ spec ^ {|,"policies":["full","fast"]}|}));
  check "legacy cleanup axis" {|bad element in "cleanup"|}
    (usage ({|explore","params":{|} ^ spec ^ {|,"cleanup":[1]}|}));
  check "optional int field" {|"jobs" must be an integer|}
    (usage ({|explore","params":{|} ^ spec ^ {|,"jobs":1.5}|}));
  check "enum field" {|"flow" must be "conventional", "blc" or "optimized"|}
    (usage ({|schedule","params":{|} ^ spec ^ {|,"flow":"fast"}|}));
  check "enum field, listed"
    {|"format" must be one of vhdl, vhdl-netlist, verilog, verilog-tb|}
    (usage ({|emit","params":{|} ^ spec ^ {|,"format":"edif"}|}));
  check "config enum field" {|config "policy" must be "full" or "coalesced"|}
    (usage ({|report","params":{|} ^ spec ^ {|,"config":{"policy":7}}|}));
  check "optional string field" {|"tag" must be a string|}
    (usage {|workloads","params":{"tag":["dsp"]}|});
  check "missing spec" {|params without a "spec" field|}
    (usage {|parse","params":{}|});
  check "empty spec" {|spec needs exactly one of "source", "file" or "builtin"|}
    (usage {|parse","params":{"spec":{"source":5}}|});
  check "ambiguous spec" {|spec has more than one of "source", "file", "builtin"|}
    (usage {|parse","params":{"spec":{"source":"x","builtin":"y"}}|});
  let envelope line =
    match Req.of_string line with Error (`Usage m) -> m | _ -> "accepted"
  in
  check "missing method" {|request without a "method" field|}
    (envelope {|{"v":1,"params":{}}|});
  check "missing version" {|request without a "v" version field|}
    (envelope {|{"method":"ping"}|});
  check "unknown method" {|unknown method "frobnicate"|}
    (envelope {|{"v":1,"method":"frobnicate"}|})

(* ------------------------------------------------------------------ *)
(* Exit codes and retryability: the documented taxonomy.               *)

let test_exit_codes () =
  let cases =
    [
      (Resp.Usage "m", 2, false);
      (Resp.Unsupported_version 3, 2, false);
      (Resp.Overloaded { queued = 1; capacity = 1 }, 6, true);
      (Resp.Failed (F.Infeasible "m"), 3, false);
      (Resp.Failed (F.Timeout 1.0), 4, true);
      (Resp.Failed (F.Resource "m"), 5, true);
      (Resp.Failed (F.Internal Exit), 7, true);
    ]
  in
  List.iter
    (fun (e, code, retry) ->
      check_int (Resp.error_message e) code (Resp.exit_code e);
      check_bool (Resp.error_message e ^ " retryable") retry (Resp.retryable e))
    cases

(* ------------------------------------------------------------------ *)
(* Response round-trips over real payloads: to_json (of_json (to_json t))
   = to_json t, and the rendered text is byte-identical after a wire
   hop (what makes --connect output indistinguishable from local).     *)

let roundtrip_response t =
  let j = Resp.to_json t in
  match Resp.of_json j with
  | Error m -> Alcotest.failf "response failed to decode: %s" m
  | Ok back ->
      check "wire round-trip" (J.to_string j) (J.to_string (Resp.to_json back));
      back

let run_payload exec req =
  match Exec.run exec req with
  | Ok p -> p
  | Error e -> Alcotest.failf "request failed: %s" (Resp.error_message e)

let test_response_roundtrip () =
  let exec = Exec.create () in
  Fun.protect ~finally:(fun () -> Exec.close exec) @@ fun () ->
  let reqs =
    [
      Req.Parse { spec = Req.Builtin "chain3" };
      Req.Report
        {
          spec = Req.Builtin "chain3";
          latency = 3;
          config = Req.default_config;
          target_ns = Some 4.0;
        };
      Req.Schedule
        {
          spec = Req.Builtin "fir2";
          latency = 3;
          flow = Req.Optimized;
          config = Req.default_config;
        };
      Req.Schedule
        {
          spec = Req.Builtin "fir2";
          latency = 3;
          flow = Req.Conventional;
          config = Req.default_config;
        };
      Req.Simulate
        {
          spec = Req.Builtin "chain3";
          latency = 3;
          seed = 7;
          config = Req.default_config;
          vcd = true;
        };
      Req.Emit
        {
          spec = Req.Builtin "chain3";
          latency = 3;
          format = Req.Vhdl;
          config = Req.default_config;
        };
      Req.Explore
        {
          spec = Req.Builtin "chain3";
          params =
            { Req.default_explore_params with latencies = [ 3; 6 ]; jobs = Some 1 };
        };
      Req.Iterate
        {
          spec = Req.Builtin "fir2";
          latency = 6;
          rounds = 3;
          config = Req.default_config;
        };
      Req.Stats;
    ]
  in
  List.iter
    (fun req ->
      let p = run_payload exec req in
      let resp = Resp.ok ~id:"r" p in
      let back = roundtrip_response resp in
      match back.Resp.result with
      | Error _ -> Alcotest.fail "ok response decoded as error"
      | Ok p' ->
          check
            (Req.method_name req ^ " renders identically after the wire")
            (Render.to_text p) (Render.to_text p'))
    reqs;
  (* failures survive the wire too; Internal decodes through Remote,
     whose printer preserves the text *)
  List.iter
    (fun f ->
      ignore (roundtrip_response (Resp.fail (Resp.Failed f))))
    [
      F.Infeasible "m";
      F.Timeout 0.25;
      F.Resource "fd";
      F.Internal (Hls_util.Faults.Injected "boom");
    ]

(* ------------------------------------------------------------------ *)
(* Legacy v1 clients: the old "cleanup" boolean still decodes, mapped
   onto the cleanup preset recipe, both in configs and the sweep axis. *)

let test_legacy_cleanup_decode () =
  let _, req =
    decode
      {|{"v":1,"method":"report","params":{"spec":{"builtin":"chain3"},"latency":3,"config":{"cleanup":true}}}|}
  in
  (match req with
  | Req.Report { config = { Req.transform = "cleanup"; verify = "off"; _ }; _ }
    -> ()
  | _ -> Alcotest.fail "config cleanup:true must decode as the cleanup preset");
  let _, req =
    decode
      {|{"v":1,"method":"explore","params":{"spec":{"builtin":"chain3"},"cleanup":[true,false]}}|}
  in
  match req with
  | Req.Explore { params = { Req.recipes = [ "cleanup"; "none" ]; _ }; _ } -> ()
  | _ -> Alcotest.fail "cleanup axis must decode as a recipe axis"

(* ------------------------------------------------------------------ *)
(* The transform verb end to end: applied passes logged, the verify
   gate's checks counted, bad recipes and policies rejected as usage.  *)

let test_exec_transform () =
  let exec = Exec.create () in
  Fun.protect ~finally:(fun () -> Exec.close exec) @@ fun () ->
  let transform recipe verify =
    Exec.run exec (Req.Transform { spec = Req.Builtin "fir2"; recipe; verify })
  in
  (match transform "standard" "every_pass" with
  | Ok (Resp.Transformed x) ->
      check "canonical recipe spec" "canon,fold,cse,strength,balance,dce"
        x.Resp.x_recipe;
      check_int "nothing rejected" 0 x.Resp.x_rejected;
      check_bool "every fired pass was checked" true
        (x.Resp.x_checks > 0
        && List.for_all
             (fun (e : Resp.transform_entry) ->
               (not e.Resp.te_fired) || e.Resp.te_verdict <> None)
             x.Resp.x_log)
  | Ok _ -> Alcotest.fail "transform returned a non-transform payload"
  | Error e -> Alcotest.failf "transform failed: %s" (Resp.error_message e));
  (match transform "no-such-pass" "off" with
  | Error (Resp.Usage m) ->
      check_bool "bad recipe named" true (contains ~affix:"no-such-pass" m)
  | _ -> Alcotest.fail "unknown pass must be a usage error");
  match transform "standard" "paranoid" with
  | Error (Resp.Usage _) -> ()
  | _ -> Alcotest.fail "unknown verify policy must be a usage error"

(* ------------------------------------------------------------------ *)
(* Exec: memoized prepared prefix, batch alignment, injected faults.   *)

let test_exec_memoization () =
  let exec = Exec.create () in
  Fun.protect ~finally:(fun () -> Exec.close exec) @@ fun () ->
  let report latency =
    Req.Report
      {
        spec = Req.Builtin "chain3";
        latency;
        config = Req.default_config;
        target_ns = None;
      }
  in
  ignore (run_payload exec (report 3));
  let before = Exec.prepared_hits exec in
  ignore (run_payload exec (report 4));
  ignore (run_payload exec (report 5));
  check_bool "prepared prefix memoized across requests" true
    (Exec.prepared_hits exec >= before + 2)

let test_exec_batch () =
  let exec = Exec.create () in
  Fun.protect ~finally:(fun () -> Exec.close exec) @@ fun () ->
  let reqs =
    [|
      Req.Parse { spec = Req.Builtin "chain3" };
      Req.Parse { spec = Req.Builtin "no-such-workload" };
      Req.Report
        {
          spec = Req.Builtin "fir2";
          latency = 3;
          config = Req.default_config;
          target_ns = None;
        };
    |]
  in
  let rs = Exec.run_batch ~workers:2 exec reqs in
  check_int "batch size" 3 (Array.length rs);
  (match rs.(0) with
  | Ok (Resp.Parsed _) -> ()
  | _ -> Alcotest.fail "batch slot 0 should parse");
  (match rs.(1) with
  | Error (Resp.Usage m) ->
      check_bool "unknown builtin named" true
        (contains ~affix:"no-such-workload" m)
  | _ -> Alcotest.fail "batch slot 1 should be a usage error");
  match rs.(2) with
  | Ok (Resp.Reported _) -> ()
  | _ -> Alcotest.fail "batch slot 2 should report"

let test_exec_batch_faults () =
  (* an injected fault under job index 1 must surface as that request's
     classified Internal failure and leave its neighbours untouched *)
  let exec = Exec.create () in
  Fun.protect
    ~finally:(fun () ->
      Hls_util.Faults.disarm ();
      Exec.close exec)
  @@ fun () ->
  Hls_util.Faults.(arm { inert with fail_job = Some (1, 1) });
  let parse b = Req.Parse { spec = Req.Builtin b } in
  let rs =
    Exec.run_batch ~workers:2 exec [| parse "chain3"; parse "fir2"; parse "fig3" |]
  in
  (match rs.(1) with
  | Error (Resp.Failed (F.Internal _) as e) ->
      check_bool "injected fault is retryable" true (Resp.retryable e)
  | _ -> Alcotest.fail "fault must land on batch index 1");
  match (rs.(0), rs.(2)) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "faults must not leak onto other batch slots"

(* Builtin graphs are built once per process and shared: a batch whose
   pooled suffixes run on two domains over the same graphs answers byte
   for byte what one-at-a-time runs on a fresh executor answer. *)
let test_exec_batch_shared_builtins () =
  let reqs =
    Array.of_list
      (List.concat_map
         (fun name ->
           [
             Req.Iterate
               { spec = Req.Builtin name; latency = 14; rounds = 8;
                 config = Req.default_config };
             Req.Report
               { spec = Req.Builtin name; latency = 8;
                 config = Req.default_config; target_ns = None };
             Req.Schedule
               { spec = Req.Builtin name; latency = 6; flow = Req.Blc;
                 config = Req.default_config };
             Req.Parse { spec = Req.Builtin name };
           ])
         [ "fir8"; "dct8"; "fir8"; "elliptic"; "dct8" ])
  in
  let render r =
    match r with
    | Ok p -> Resp.to_string (Resp.ok p)
    | Error e -> Resp.to_string (Resp.fail e)
  in
  let with_exec f =
    let exec = Exec.create () in
    Fun.protect ~finally:(fun () -> Exec.close exec) (fun () -> f exec)
  in
  let batched =
    with_exec (fun exec -> Array.map render (Exec.run_batch ~workers:2 exec reqs))
  in
  let sequential =
    with_exec (fun exec -> Array.map (fun r -> render (Exec.run exec r)) reqs)
  in
  Array.iteri
    (fun i want ->
      Alcotest.(check string) (Printf.sprintf "request %d" i) want batched.(i))
    sequential;
  check_bool "every request answered" true
    (Array.for_all (fun s -> not (contains ~affix:"\"error\"" s)) sequential)

(* A daemon executes every request through run_batch, so a batched
   request must show up under its api.<verb> span and counters exactly
   as a run request does, pooled or not. *)
let test_exec_batch_spans () =
  let module Tm = Hls_telemetry in
  let exec = Exec.create () in
  Fun.protect
    ~finally:(fun () ->
      Tm.disarm ();
      Tm.reset ();
      Exec.close exec)
  @@ fun () ->
  Tm.reset ();
  Tm.arm ();
  let rs =
    Exec.run_batch ~workers:2 exec
      [|
        Req.Report
          {
            spec = Req.Builtin "fir2";
            latency = 3;
            config = Req.default_config;
            target_ns = None;
          };
        Req.Parse { spec = Req.Builtin "chain3" };
      |]
  in
  check_bool "both requests served" true
    (Array.for_all Result.is_ok rs);
  let calls name =
    match List.assoc_opt name (Tm.span_totals ()) with
    | Some (c, _) -> c
    | None -> 0
  in
  check_int "one api.report span" 1 (calls "api.report");
  check_int "one api.parse span" 1 (calls "api.parse");
  check_int "two requests counted" 2 (Tm.counter_total "api.requests");
  check_int "no errors counted" 0 (Tm.counter_total "api.errors")

(* ------------------------------------------------------------------ *)
(* In-process server smoke: several client domains against one daemon,
   responses matched on id; shedding on a full queue; injected faults
   reaching pooled requests through the server path.                   *)

let with_server ?(max_queue = 64) f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hls-api-test-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let exec = Exec.create () in
  let stop = Atomic.make false in
  let cfg =
    { (Hls_server.Server.default_config ~socket) with max_queue; workers = Some 2 }
  in
  let srv = Domain.spawn (fun () -> Hls_server.Server.serve ~stop cfg exec) in
  let rec wait_up n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists socket) then (Unix.sleepf 0.02; wait_up (n - 1))
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv;
      Exec.close exec)
    (fun () -> f socket)

let test_server_concurrent () =
  with_server @@ fun socket ->
  let client k =
    let reqs =
      [
        Req.Parse { spec = Req.Builtin "chain3" };
        Req.Report
          {
            spec = Req.Builtin "fir2";
            latency = 3;
            config = Req.default_config;
            target_ns = None;
          };
        Req.Emit
          {
            spec = Req.Builtin "chain3";
            latency = 3;
            format = Req.Verilog;
            config = Req.default_config;
          };
      ]
    in
    List.mapi
      (fun i req ->
        let id = Printf.sprintf "c%d-%d" k i in
        match Hls_server.Client.call ~socket ~id req with
        | Error m -> Alcotest.failf "client %s transport error: %s" id m
        | Ok resp ->
            check "response id" id (Option.value resp.Resp.id ~default:"<none>");
            Result.is_ok resp.Resp.result)
      reqs
  in
  let domains = List.init 3 (fun k -> Domain.spawn (fun () -> client k)) in
  let oks = List.concat_map Domain.join domains in
  check_int "every request succeeded" 9
    (List.length (List.filter Fun.id oks))

let test_server_sheds_on_full_queue () =
  with_server ~max_queue:1 @@ fun socket ->
  match Hls_server.Client.connect socket with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c ->
      Fun.protect ~finally:(fun () -> Hls_server.Client.close c) @@ fun () ->
      (* one write delivering a burst of lines: drain_lines admits into a
         1-deep queue, so at most one survives admission per loop turn
         and the rest are answered Overloaded immediately *)
      let line =
        J.to_string
          (Req.to_json ~id:"b" (Req.Parse { spec = Req.Builtin "chain3" }))
      in
      let n = 6 in
      let burst = String.concat "\n" (List.init n (fun _ -> line)) ^ "\n" in
      (match Hls_server.Client.raw_roundtrip c burst with
      | Error m -> Alcotest.failf "burst send: %s" m
      | Ok _first -> ());
      let shed = ref 0 and okd = ref 1 (* first response already read *) in
      for _ = 2 to n do
        match Hls_server.Client.receive c with
        | Error m -> Alcotest.failf "receive: %s" m
        | Ok { Resp.result = Error (Resp.Overloaded _); _ } -> incr shed
        | Ok { Resp.result = Error e; _ } ->
            Alcotest.failf "unexpected error: %s" (Resp.error_message e)
        | Ok { Resp.result = Ok _; _ } -> incr okd
      done;
      check_bool "at least one request shed" true (!shed >= 1);
      check_bool "at least one request admitted" true (!okd >= 1);
      check_int "nothing lost" n (!shed + !okd)

let test_server_faults () =
  (* HLS_FAULTS-style injection reaches requests batched by the server:
     batch index 0 fails its first two executions, so a sequential
     client sees fail, fail, then success — each classified Internal
     and marked retryable on the wire. *)
  Hls_util.Faults.(arm { inert with fail_job = Some (0, 2) });
  Fun.protect ~finally:Hls_util.Faults.disarm @@ fun () ->
  with_server @@ fun socket ->
  let ask i =
    match
      Hls_server.Client.call ~socket ~id:(string_of_int i)
        (Req.Parse { spec = Req.Builtin "chain3" })
    with
    | Error m -> Alcotest.failf "transport: %s" m
    | Ok r -> r.Resp.result
  in
  (match ask 1 with
  | Error (Resp.Failed (F.Internal _) as e) ->
      check_bool "retryable on the wire" true (Resp.retryable e)
  | _ -> Alcotest.fail "first execution must hit the injected fault");
  (match ask 2 with
  | Error (Resp.Failed (F.Internal _)) -> ()
  | _ -> Alcotest.fail "second execution must hit the injected fault");
  match ask 3 with
  | Ok (Resp.Parsed _) -> ()
  | _ -> Alcotest.fail "third execution must succeed"

let test_server_ping_overtakes_queue () =
  (* Liveness is decoupled from batch latency: a ping behind a queued
     explore is answered at decode time, so its pong comes back before
     the explore even starts.  This is what lets a router health-check a
     backend that is working through a deep queue. *)
  with_server @@ fun socket ->
  match Hls_server.Client.connect socket with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c ->
      Fun.protect ~finally:(fun () -> Hls_server.Client.close c) @@ fun () ->
      let explore =
        J.to_string
          (Req.to_json ~id:"x"
             (Req.Explore
                {
                  spec = Req.Builtin "chain3";
                  params =
                    { Req.default_explore_params with latencies = [ 2; 3 ] };
                }))
      in
      let ping = J.to_string (Req.to_json ~id:"p" Req.Ping) in
      (* one flush delivers both lines into the same decode round *)
      match Hls_server.Client.raw_burst c [ explore; ping ] with
      | Error m -> Alcotest.failf "burst: %s" m
      | Ok [] -> Alcotest.fail "no responses"
      | Ok (first :: rest) -> (
          (match Resp.of_string first with
          | Ok { Resp.id = Some "p"; result = Ok (Resp.Pong _) } -> ()
          | Ok r ->
              Alcotest.failf "ping must overtake queued work, got id %s first"
                (Option.value r.Resp.id ~default:"<none>")
          | Error m -> Alcotest.failf "bad first response: %s" m);
          match List.map Resp.of_string rest with
          | [ Ok { Resp.id = Some "x"; result = Ok (Resp.Explored _) } ] -> ()
          | _ -> Alcotest.fail "the explore must still be answered")

let test_server_drain_sheds_explore () =
  (* Two explores into a batch-of-1 server; SIGTERM-equivalent while the
     first executes.  The drain cannot bound a serial explore once it
     starts, so the queued second one must be shed as the retryable
     Unavailable instead of holding shutdown past the grace window.
     delay_job pins every sweep job at 0.3 s so the first explore is
     reliably still executing when the stop flag flips. *)
  Hls_util.Faults.(arm { inert with delay_job = Some (None, 0.3) });
  Fun.protect ~finally:Hls_util.Faults.disarm @@ fun () ->
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hls-api-drain-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let exec = Exec.create () in
  let stop = Atomic.make false in
  let cfg =
    { (Hls_server.Server.default_config ~socket) with batch = 1; workers = Some 2 }
  in
  let srv = Domain.spawn (fun () -> Hls_server.Server.serve ~stop cfg exec) in
  let rec wait_up n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists socket) then (Unix.sleepf 0.02; wait_up (n - 1))
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv;
      Exec.close exec)
    (fun () ->
      let explore id =
        J.to_string
          (Req.to_json ~id
             (Req.Explore
                {
                  spec = Req.Builtin "chain3";
                  params =
                    { Req.default_explore_params with latencies = [ 2; 3; 4 ] };
                }))
      in
      let client =
        Domain.spawn (fun () ->
            match Hls_server.Client.connect socket with
            | Error m -> Error m
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Hls_server.Client.close c)
                  (fun () ->
                    Hls_server.Client.raw_burst c
                      [ explore "e1"; explore "e2" ]))
      in
      (* let the server admit both and start executing e1, then drain *)
      Unix.sleepf 0.15;
      Atomic.set stop true;
      match Domain.join client with
      | Error m -> Alcotest.failf "burst: %s" m
      | Ok resps -> (
          let find id =
            List.find_map
              (fun line ->
                match Resp.of_string line with
                | Ok r when r.Resp.id = Some id -> Some r.Resp.result
                | _ -> None)
              resps
          in
          (match find "e1" with
          | Some (Ok (Resp.Explored _)) -> ()
          | _ -> Alcotest.fail "the explore already executing must finish");
          match find "e2" with
          | Some (Error (Resp.Unavailable _ as e)) ->
              check_bool "drain shed is retryable" true (Resp.retryable e)
          | _ ->
              Alcotest.fail
                "the queued explore must be shed Unavailable at drain"))

let suite =
  [
    Alcotest.test_case "golden v1 request strings" `Quick test_request_golden;
    Alcotest.test_case "golden v1 response strings" `Quick test_response_golden;
    Alcotest.test_case "golden v1 request per verb" `Quick
      test_request_golden_verbs;
    Alcotest.test_case "golden v1 response per payload" `Quick
      test_response_golden_payloads;
    Alcotest.test_case "usage messages pinned" `Quick test_usage_messages;
    Alcotest.test_case "envelope id and deadline types" `Quick
      test_envelope_field_types;
    Alcotest.test_case "request codec round-trips" `Quick test_request_decode;
    Alcotest.test_case "versioning and forward compat" `Quick
      test_request_versioning;
    Alcotest.test_case "exit-code taxonomy" `Quick test_exit_codes;
    Alcotest.test_case "response round-trip + stable rendering" `Quick
      test_response_roundtrip;
    Alcotest.test_case "legacy cleanup fields decode" `Quick
      test_legacy_cleanup_decode;
    Alcotest.test_case "transform verb end to end" `Quick test_exec_transform;
    Alcotest.test_case "exec memoizes the prepared prefix" `Quick
      test_exec_memoization;
    Alcotest.test_case "exec batch alignment" `Quick test_exec_batch;
    Alcotest.test_case "exec batch shares builtin graphs" `Quick
      test_exec_batch_shared_builtins;
    Alcotest.test_case "exec batch fault injection" `Quick
      test_exec_batch_faults;
    Alcotest.test_case "exec batch opens one api span per request" `Quick
      test_exec_batch_spans;
    Alcotest.test_case "server: concurrent clients" `Quick
      test_server_concurrent;
    Alcotest.test_case "server: bounded queue sheds" `Quick
      test_server_sheds_on_full_queue;
    Alcotest.test_case "server: faults reach batched requests" `Quick
      test_server_faults;
    Alcotest.test_case "server: ping overtakes queued work" `Quick
      test_server_ping_overtakes_queue;
    Alcotest.test_case "server: drain sheds queued explores" `Slow
      test_server_drain_sheds_explore;
  ]
