(* The fuzzer's codec lane: random v1 requests and responses pushed
   through their wire codecs and back, byte-exactly.

   Each case draws a random envelope or response, prints it, re-parses
   the line and prints again: the two strings must be identical, and the
   decoded value equal to the drawn one.  That proves the decoder accepts
   everything the encoder emits, that re-encoding is canonical (which is
   what lets the serving tier forward lines verbatim), and that no field
   is lost on the way.

   The check lives here rather than in [lib/fuzz] so the dependency
   points the right way: the driver takes the case as an injected
   closure ([Driver.config.codec_case]) and never links against the
   api. *)

module J = Hls_dse.Dse_json
module Prng = Hls_util.Prng
module Failure = Hls_util.Failure

(* ------------------------------------------------------------------ *)
(* Random scalars.  Floats are quarters so every value has a short
   exact decimal spelling; the codec would round-trip any finite float,
   but repro lines stay readable this way. *)

let small prng = Prng.int prng 100
let quarter prng = float_of_int (Prng.int prng 400) /. 4.

let ident prng =
  let n = 1 + Prng.int prng 8 in
  String.init n (fun _ ->
      "abcdefghijklmnopqrstuvwxyz0123456789_-".[Prng.int prng 38])

let opt prng f = if Prng.bool prng then Some (f prng) else None

let list prng f =
  List.init (Prng.int prng 4) (fun _ -> f prng)

let nonempty_list prng f =
  List.init (1 + Prng.int prng 3) (fun _ -> f prng)

(* ------------------------------------------------------------------ *)
(* Random requests.                                                    *)

let random_spec prng =
  match Prng.int prng 3 with
  | 0 -> Request.Source (ident prng)
  | 1 -> Request.File (ident prng)
  | _ -> Request.Builtin (ident prng)

let random_config prng =
  {
    Request.lib_name = ident prng;
    policy = Prng.pick prng [ `Full; `Coalesced ];
    balance = Prng.bool prng;
    transform = ident prng;
    verify = ident prng;
    iterate = small prng;
  }

let random_explore_params prng =
  {
    Request.latencies = nonempty_list prng small;
    policies = nonempty_list prng (fun p -> Prng.pick p [ `Full; `Coalesced ]);
    lib_names = nonempty_list prng ident;
    balance_axis = nonempty_list prng Prng.bool;
    recipes = nonempty_list prng ident;
    iterates = nonempty_list prng small;
    verify = ident prng;
    jobs = opt prng small;
    timeout_s = opt prng quarter;
    feedback = small prng;
    retries = small prng;
    backoff_s = quarter prng;
    degrade = Prng.bool prng;
  }

let random_request prng =
  match Prng.int prng 13 with
  | 0 -> Request.Ping
  | 1 -> Request.Parse { spec = random_spec prng }
  | 2 ->
      Request.Optimize
        {
          spec = random_spec prng;
          latency = small prng;
          config = random_config prng;
          vhdl = Prng.bool prng;
        }
  | 3 ->
      Request.Report
        {
          spec = random_spec prng;
          latency = small prng;
          config = random_config prng;
          target_ns = opt prng quarter;
        }
  | 4 ->
      Request.Schedule
        {
          spec = random_spec prng;
          latency = small prng;
          flow =
            Prng.pick prng
              [ Request.Conventional; Request.Blc; Request.Optimized ];
          config = random_config prng;
        }
  | 5 ->
      Request.Explore
        { spec = random_spec prng; params = random_explore_params prng }
  | 6 ->
      Request.Transform
        { spec = random_spec prng; recipe = ident prng; verify = ident prng }
  | 7 ->
      Request.Simulate
        {
          spec = random_spec prng;
          latency = small prng;
          seed = small prng;
          config = random_config prng;
          vcd = Prng.bool prng;
        }
  | 8 ->
      Request.Emit
        {
          spec = random_spec prng;
          latency = small prng;
          format =
            Prng.pick prng
              [
                Request.Vhdl;
                Request.Vhdl_rtl;
                Request.Vhdl_netlist;
                Request.Verilog;
                Request.Verilog_tb;
              ];
          config = random_config prng;
        }
  | 9 ->
      Request.Iterate
        {
          spec = random_spec prng;
          latency = small prng;
          rounds = small prng;
          config = random_config prng;
        }
  | 10 -> Request.Stats
  | 11 -> Request.Workloads { tag = opt prng ident }
  | _ ->
      Request.Fuzz
        {
          seed = small prng;
          budget = small prng;
          lanes = list prng ident;
          dir = ident prng;
          max_seconds = quarter prng;
        }

(* ------------------------------------------------------------------ *)
(* Random responses, drawn field by field without the codecs'
   descriptors so the round trip checks the descriptors against an
   independent description of the values. *)

let random_stats prng =
  {
    Response.gs_name = ident prng;
    gs_inputs = small prng;
    gs_outputs = small prng;
    gs_nodes = small prng;
    gs_ops = small prng;
    gs_critical = small prng;
  }

let random_metrics prng =
  {
    Hls_dse.Cache.m_flow = ident prng;
    m_latency = small prng;
    m_cycle_delta = small prng;
    m_cycle_ns = quarter prng;
    m_execution_ns = quarter prng;
    m_op_count = small prng;
    m_fragment_count = small prng;
    m_fu_gates = small prng;
    m_register_gates = small prng;
    m_mux_gates = small prng;
    m_controller_gates = small prng;
    m_total_gates = small prng;
  }

(* Libraries come from the known set: a sweep names them, and decoding
   resolves the name. *)
let random_job prng =
  let lib_name, lib = Prng.pick prng Hls_dse.Space.known_libs in
  {
    Hls_dse.Space.latency = small prng;
    policy = Prng.pick prng [ `Full; `Coalesced ];
    lib_name;
    lib;
    balance = Prng.bool prng;
    recipe = ident prng;
    iterate = small prng;
  }

(* The failure classes that survive the wire; an internal fault crosses
   it as [Remote], whose printer keeps the text. *)
let random_failure prng =
  match Prng.int prng 4 with
  | 0 -> Failure.Infeasible (ident prng)
  | 1 -> Failure.Timeout (quarter prng)
  | 2 -> Failure.Resource (ident prng)
  | _ -> Failure.Internal (Failure.Remote (ident prng))

let random_point prng =
  {
    Hls_dse.Explore.job = random_job prng;
    metrics = random_metrics prng;
    from_cache = Prng.bool prng;
    degraded = Prng.bool prng;
    attempts = small prng;
    wall_s = quarter prng;
  }

let random_sweep prng =
  {
    Hls_dse.Explore.graph_name = ident prng;
    digest = ident prng;
    points = list prng random_point;
    failures =
      list prng (fun p ->
          {
            Hls_dse.Explore.f_job = random_job p;
            f_class = random_failure p;
            f_reason = ident p;
            f_attempts = small p;
          });
    frontier = list prng random_point;
    transforms =
      list prng (fun p ->
          {
            Hls_dse.Explore.t_recipe = ident p;
            t_passes = small p;
            t_fired = small p;
            t_checks = small p;
            t_rejected = small p;
            t_nodes_before = small p;
            t_nodes_after = small p;
            t_depth_before = small p;
            t_depth_after = small p;
          });
    rounds = small prng;
    wall_s = quarter prng;
    cache_hits = small prng;
    cache_misses = small prng;
    recovered = small prng;
    phases = list prng (fun p -> (ident p, small p, quarter p));
    counters = list prng (fun p -> (ident p, small p));
    gauges = list prng (fun p -> (ident p, (quarter p, quarter p)));
  }

let random_payload prng =
  match Prng.int prng 12 with
  | 0 -> Response.Pong { pong_pid = small prng }
  | 1 -> Response.Parsed { stats = random_stats prng; pretty = ident prng }
  | 2 ->
      Response.Optimized
        {
          critical = small prng;
          cycle = small prng;
          fragments = small prng;
          text = ident prng;
        }
  | 3 ->
      Response.Scheduled
        {
          s_flow =
            Prng.pick prng
              [ Request.Conventional; Request.Blc; Request.Optimized ];
          s_latency = small prng;
          s_rows =
            list prng (fun p ->
                { Response.cr_cycle = small p; cr_ops = list p ident });
          s_profile =
            list prng (fun p ->
                {
                  Response.pr_cycle = small p;
                  pr_chain = small p;
                  pr_fragments = small p;
                  pr_adder_bits = small p;
                });
          s_used_delta = opt prng small;
          s_cycle_delta = opt prng small;
          s_gantt = list prng (fun p -> (ident p, list p small));
        }
  | 4 ->
      Response.Transformed
        {
          x_recipe = ident prng;
          x_verify = ident prng;
          x_before = random_stats prng;
          x_after = random_stats prng;
          x_checks = small prng;
          x_rejected = small prng;
          x_log =
            list prng (fun p ->
                {
                  Response.te_pass = ident p;
                  te_fired = Prng.bool p;
                  te_accepted = Prng.bool p;
                  te_sites = small p;
                  te_nodes_before = small p;
                  te_nodes_after = small p;
                  te_depth_before = small p;
                  te_depth_after = small p;
                  te_verdict = opt p ident;
                });
          x_pretty = ident prng;
        }
  | 5 ->
      Response.Simulated
        {
          sim_latency = small prng;
          sim_inputs = list prng (fun p -> (ident p, small p));
          sim_outputs = list prng (fun p -> (ident p, small p, small p));
          sim_vcd = opt prng ident;
        }
  | 6 ->
      Response.Iterated
        {
          it_initial_latency = small prng;
          it_final_latency = small prng;
          it_initial_delta = small prng;
          it_final_delta = small prng;
          it_saved_pct = quarter prng;
          it_stop = ident prng;
          it_rounds =
            list prng (fun p ->
                {
                  Response.ir_index = small p;
                  ir_target = small p;
                  ir_cap = small p;
                  ir_region = small p;
                  ir_region_adds = small p;
                  ir_pinned = Prng.bool p;
                  ir_accepted = Prng.bool p;
                  ir_latency = small p;
                  ir_delta = small p;
                });
        }
  | 7 ->
      Response.Stats
        { st_source = ident prng; st_gauges = list prng (fun p -> (ident p, small p)) }
  | 8 ->
      Response.Workloads
        (list prng (fun p ->
             {
               Response.w_name = ident p;
               w_kind = ident p;
               w_tags = list p ident;
               w_ops = small p;
               w_inputs = small p;
               w_latency = small p;
             }))
  | 9 ->
      Response.Reported
        {
          r_stats = random_stats prng;
          r_latency = small prng;
          r_target = opt prng (fun p -> (quarter p, small p));
          r_conventional = random_metrics prng;
          r_optimized = random_metrics prng;
          r_equivalence = opt prng ident;
          r_saved_pct = quarter prng;
        }
  | 10 -> Response.Explored (random_sweep prng)
  | _ ->
      Response.Fuzzed
        {
          fz_seed = small prng;
          fz_cases = small prng;
          fz_mismatches = small prng;
          fz_skipped = small prng;
          fz_coverage = small prng;
          fz_wall_s = quarter prng;
          fz_lanes =
            list prng (fun p ->
                {
                  Response.fl_lane = ident p;
                  fl_cases = small p;
                  fl_mismatches = small p;
                  fl_skipped = small p;
                  fl_repros = list p (fun q -> (ident q, small q));
                });
        }

let random_error prng =
  match Prng.int prng 5 with
  | 0 -> Response.Usage (ident prng)
  | 1 -> Response.Unsupported_version (small prng)
  | 2 -> Response.Overloaded { queued = small prng; capacity = small prng }
  | 3 -> Response.Unavailable (ident prng)
  | _ -> Response.Failed (random_failure prng)

(* ------------------------------------------------------------------ *)
(* The round trips.                                                    *)

let mismatch what first second =
  Error (Printf.sprintf "%s round trip not byte-exact:\n  %s\nvs\n  %s" what
           first second)

let lossy what line =
  Error (Printf.sprintf "%s decoded to a different value: %s" what line)

let request_trip prng =
  let req = random_request prng in
  let id = opt prng ident in
  let deadline_ms = opt prng quarter in
  let line = J.to_string (Request.to_json ?id ?deadline_ms req) in
  match Request.envelope_of_string line with
  | Error (`Usage m) ->
      Error (Printf.sprintf "request rejected by the decoder (%s): %s" m line)
  | Error (`Unsupported_version n) ->
      Error (Printf.sprintf "request decoded as version %d: %s" n line)
  | Ok e ->
      let line' =
        J.to_string
          (Request.to_json ?id:e.Request.env_id
             ?deadline_ms:e.Request.env_deadline_ms e.Request.env_req)
      in
      if not (String.equal line line') then mismatch "request" line line'
      else if (e.Request.env_id, e.Request.env_deadline_ms, e.Request.env_req)
              <> (id, deadline_ms, req)
      then lossy "request" line
      else Ok ()

let response_trip prng =
  let id = opt prng ident in
  let result =
    if Prng.int prng 4 = 0 then Error (random_error prng)
    else Ok (random_payload prng)
  in
  let line = Response.to_string { Response.id; result } in
  match Response.of_string line with
  | Error m ->
      Error (Printf.sprintf "response rejected by the decoder (%s): %s" m line)
  | Ok r ->
      let line' = Response.to_string r in
      if not (String.equal line line') then mismatch "response" line line'
      else if r <> { Response.id; result } then lossy "response" line
      else Ok ()

let case prng =
  if Prng.bool prng then request_trip prng else response_trip prng
