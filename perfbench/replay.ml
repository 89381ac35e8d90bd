(* Layer-by-layer replay of one request.  Calls each layer's public
   functions in the order Exec and Pipeline call them, under a span per
   call, and rebuilds the answer so the caller can assert that it equals
   the program's own response: the decomposition cannot drift from the
   program without that check failing.  The replayed design points are
   what the correctness gate checks. *)

module P = Hls_core.Pipeline
module R = Hls_api.Request
module Resp = Hls_api.Response
module G = Hls_dfg.Graph
module T = Tracer

(* The comparable part of a response: measurement fields (wall times)
   dropped, emitted text reduced to its digest. *)
type answer =
  | Points of (int * Hls_dse.Cache.metrics) list  (** explore, by latency *)
  | Reported of Resp.reported
  | Text of Digest.t
  | Scheduled of int * int option * Resp.profile_row list
  | Iterated of Resp.iterated

let answer_of_payload = function
  | Resp.Explored e when e.Hls_dse.Explore.failures = [] ->
      Some
        (Points
           (List.map
              (fun (p : Hls_dse.Explore.point) ->
                (p.job.Hls_dse.Space.latency, p.metrics))
              e.Hls_dse.Explore.points))
  | Resp.Reported r -> Some (Reported r)
  | Resp.Emitted { text; _ } -> Some (Text (Digest.string text))
  | Resp.Scheduled s -> Some (Scheduled (s.s_latency, s.s_used_delta, s.s_profile))
  | Resp.Iterated it -> Some (Iterated it)
  | _ -> None

(* One design point the replay produced, for the gate. *)
type point = {
  source : G.t;  (** the behavioural graph as loaded *)
  result : P.optimized_result;
  one_shot : Hls_sched.Frag_sched.t;  (** the schedule before iteration *)
  netlist : Hls_rtl.Netlist.t option;  (** elaborated for emit ops *)
}

type ctx = {
  tr : T.t;
  memo : (string * string * string, P.prepared) Hashtbl.t;
      (** the prepared-prefix memo, keyed as Exec keys its own *)
}

let create tr = { tr; memo = Hashtbl.create 8 }
let span c = T.span c.tr
let count c name n = T.count c.tr name (float_of_int n)

let load c = function
  | R.Builtin name ->
      span c "workloads.load" (fun () ->
          Option.get (Hls_workloads.Catalog.find_graph name))
  | R.Source src ->
      span c "speclang.elaborate" (fun () ->
          match Hls_speclang.Elaborate.from_string_result src with
          | Ok g -> g
          | Error m -> failwith m)
  | R.File _ -> invalid_arg "Replay.load: file specs are not replayed"

(* Pipeline.prepare, call by call. *)
let prepare_layers c g ~transform ~verify =
  let g, log =
    if transform.Hls_xform.Recipe.steps = [] then (g, [])
    else
      let o =
        span c "xform.apply" (fun () ->
            Hls_xform.Engine.apply ~policy:verify transform g)
      in
      let log = o.Hls_xform.Engine.log in
      count c "xform.checks" o.Hls_xform.Engine.checks;
      count c "xform.entries" (List.length log);
      count c "xform.fired" (List.length (Hls_xform.Engine.fired_entries o));
      (o.Hls_xform.Engine.graph, log)
  in
  let kernel = span c "kernel.extract" (fun () -> Hls_kernel.Extract.run g) in
  let net = span c "timing.bitnet" (fun () -> Hls_timing.Bitnet.build kernel) in
  count c "timing.bits" (Hls_timing.Bitnet.total_bits net);
  let arrival = span c "timing.arrival" (fun () -> Hls_timing.Arrival.of_net net) in
  { P.p_kernel = kernel; p_net = net; p_arrival = arrival; p_xform = log }

(* Exec's memoized prefix: same key, same hit behaviour. *)
let prepare_memo c g (cfg : P.config) =
  let key =
    ( span c "api.digest" (fun () -> Hls_dse.Cache.graph_digest g),
      Hls_xform.Recipe.to_string cfg.P.transform,
      Hls_xform.Verify.to_string cfg.P.verify )
  in
  match Hashtbl.find_opt c.memo key with
  | Some p -> p
  | None ->
      let p =
        prepare_layers c g ~transform:cfg.P.transform ~verify:cfg.P.verify
      in
      Hashtbl.replace c.memo key p;
      p

(* The per-point suffix: Pipeline.run, call by call. *)
let suffix c (cfg : P.config) (p : P.prepared) ~latency =
  let net = p.P.p_net and arrival = p.P.p_arrival and kernel = p.P.p_kernel in
  let plan =
    span c "fragment.mobility" (fun () ->
        Hls_fragment.Mobility.compute ~policy:cfg.P.policy ~net ~arrival kernel
          ~latency)
  in
  count c "fragment.fragments" (Hls_fragment.Mobility.fragment_count plan);
  let transformed =
    span c "fragment.apply" (fun () -> Hls_fragment.Transform.apply kernel plan)
  in
  let schedule =
    span c "sched.frag" (fun () ->
        Hls_sched.Frag_sched.schedule ~balance:cfg.P.balance transformed)
  in
  let one_shot = schedule in
  let schedule, iteration =
    if cfg.P.iterate <= 0 then (schedule, None)
    else
      let o =
        span c "iter.improve" (fun () ->
            Hls_iter.Iter.improve ~balance:cfg.P.balance ~policy:cfg.P.policy
              ~net ~arrival ~max_rounds:cfg.P.iterate schedule)
      in
      let rounds = o.Hls_iter.Iter.o_rounds in
      count c "iter.rounds" (List.length rounds);
      count c "iter.accepted"
        (List.length (List.filter (fun r -> r.Hls_iter.Iter.r_accepted) rounds));
      (o.Hls_iter.Iter.o_schedule, Some o)
  in
  let dp = span c "alloc.bind" (fun () -> Hls_alloc.Bind_frag.bind schedule) in
  count c "alloc.registers" (List.length dp.Hls_alloc.Datapath.registers);
  let lib = cfg.P.lib in
  let report =
    {
      P.flow = "optimized";
      latency = dp.Hls_alloc.Datapath.latency;
      cycle_delta = dp.Hls_alloc.Datapath.chain_delta;
      cycle_ns = Hls_alloc.Datapath.cycle_ns lib dp;
      execution_ns = Hls_alloc.Datapath.execution_ns lib dp;
      op_count = G.behavioural_op_count kernel;
      fragment_count = Hls_fragment.Transform.op_count transformed;
      datapath = dp;
      area = Hls_alloc.Datapath.area lib dp;
    }
  in
  ({ P.opt_report = report; kernel; transformed; schedule; iteration }, one_shot)

let graph_stats c g =
  let kernel = span c "kernel.extract" (fun () -> Hls_kernel.Extract.run g) in
  {
    Resp.gs_name = G.name g;
    gs_inputs = List.length g.G.inputs;
    gs_outputs = List.length g.G.outputs;
    gs_nodes = G.node_count g;
    gs_ops = G.behavioural_op_count g;
    gs_critical =
      span c "timing.critical" (fun () ->
          Hls_timing.Critical_path.critical_delta kernel);
  }

let config_exn config =
  match R.pipeline_config config with
  | Ok cfg -> cfg
  | Error m -> invalid_arg m

(* Replay one request: its answer and the design points behind it. *)
let run c (req : R.t) : answer * point list =
  match req with
  | R.Explore { spec; params } ->
      let g = load c spec in
      let cfg =
        config_exn
          { R.default_config with
            lib_name = List.hd params.R.lib_names;
            policy = List.hd params.R.policies;
            balance = List.hd params.R.balance_axis;
            transform = List.hd params.R.recipes }
      in
      (* Explore.run prepares once per sweep, outside Exec's memo. *)
      let p =
        prepare_layers c g ~transform:cfg.P.transform ~verify:cfg.P.verify
      in
      let results =
        List.map
          (fun latency -> (latency, suffix c cfg p ~latency))
          (List.sort_uniq compare params.R.latencies)
      in
      ( Points
          (List.map
             (fun (l, (r, _)) ->
               (l, Hls_dse.Cache.metrics_of_report r.P.opt_report))
             results),
        List.map
          (fun (_, (r, one_shot)) -> { source = g; result = r; one_shot; netlist = None })
          results )
  | R.Report { spec; latency; config; target_ns = None } ->
      let g = load c spec in
      let cfg = config_exn config in
      let p = prepare_memo c g cfg in
      let conv =
        span c "sched.conventional" (fun () ->
            P.conventional ~lib:cfg.P.lib g ~latency)
      in
      let r, one_shot = suffix c cfg p ~latency in
      let equivalence =
        span c "check.equivalence" (fun () -> P.check_optimized_equivalence g r)
      in
      let reported =
        {
          Resp.r_stats = graph_stats c g;
          r_latency = latency;
          r_target = None;
          r_conventional = Hls_dse.Cache.metrics_of_report conv;
          r_optimized = Hls_dse.Cache.metrics_of_report r.P.opt_report;
          r_equivalence = (match equivalence with Ok () -> None | Error m -> Some m);
          r_saved_pct =
            P.pct_saved ~original:conv.P.cycle_ns
              ~optimized:r.P.opt_report.P.cycle_ns;
        }
      in
      (Reported reported, [ { source = g; result = r; one_shot; netlist = None } ])
  | R.Emit { spec; latency; format = R.Verilog; config } ->
      let g = load c spec in
      let cfg = config_exn config in
      let p = prepare_memo c g cfg in
      let r, one_shot = suffix c cfg p ~latency in
      let name = Hls_speclang.Names.sanitize (G.name g) in
      let nl =
        span c "rtl.elaborate" (fun () ->
            Hls_rtl.Elaborate_netlist.elaborate r.P.schedule)
      in
      let text = span c "rtl.emit" (fun () -> Hls_rtl.Verilog.emit ~name nl) in
      count c "rtl.bytes" (String.length text);
      ( Text (Digest.string text),
        [ { source = g; result = r; one_shot; netlist = Some nl } ] )
  | R.Schedule { spec; latency; flow = R.Optimized; config } ->
      let g = load c spec in
      let cfg = config_exn config in
      let p = prepare_memo c g cfg in
      let r, one_shot = suffix c cfg p ~latency in
      let s = r.P.schedule in
      let profile =
        List.map
          (fun (pr : Hls_sched.Frag_sched.cycle_profile) ->
            {
              Resp.pr_cycle = pr.cp_cycle;
              pr_chain = pr.cp_used_delta;
              pr_fragments = pr.cp_fragments;
              pr_adder_bits = pr.cp_adder_bits;
            })
          (Hls_sched.Frag_sched.profile s)
      in
      ( Scheduled (latency, Some (Hls_sched.Frag_sched.used_delta s), profile),
        [ { source = g; result = r; one_shot; netlist = None } ] )
  | R.Iterate { spec; latency; rounds; config } ->
      let g = load c spec in
      let cfg = { (config_exn config) with P.iterate = max 1 rounds } in
      let p = prepare_memo c g cfg in
      let r, one_shot = suffix c cfg p ~latency in
      let o = Option.get r.P.iteration in
      let module I = Hls_iter.Iter in
      let round (x : I.round) =
        {
          Resp.ir_index = x.I.r_index;
          ir_target = x.I.r_target;
          ir_cap = x.I.r_cap;
          ir_region = x.I.r_region;
          ir_region_adds = x.I.r_region_adds;
          ir_pinned = x.I.r_pinned;
          ir_accepted = x.I.r_accepted;
          ir_latency = x.I.r_latency;
          ir_delta = x.I.r_delta;
        }
      in
      ( Iterated
          {
            Resp.it_initial_latency = o.I.o_initial_latency;
            it_final_latency = o.I.o_final_latency;
            it_initial_delta = o.I.o_initial_delta;
            it_final_delta = o.I.o_final_delta;
            it_saved_pct = I.saved_pct o;
            it_stop = I.stop_to_string o.I.o_stop;
            it_rounds = List.map round o.I.o_rounds;
          },
        [ { source = g; result = r; one_shot; netlist = None } ] )
  | _ -> invalid_arg ("Replay.run: no replay for " ^ R.method_name req)

(* ------------------------------------------------------------------ *)
(* Probes: layer calls timed or counted beside an op, not part of its
   replay. *)

(* The verdict class a report's equivalence check reached: "proved"
   when the input space was small enough to check exhaustively.  Runs
   the check with the samples and seed Pipeline.check_optimized_equivalence
   uses, since that function returns no verdict class. *)
let count_verdict c (pt : point) =
  count c "check.runs" 1;
  match
    Hls_check.equivalent ~samples:40 ~seed:99 pt.source
      pt.result.P.transformed.Hls_fragment.Transform.graph
  with
  | Hls_check.Proved -> count c "check.proved" 1
  | Hls_check.Passed _ | Hls_check.Failed _ -> ()

(* Explore.run as the program calls it, for the sweep's own overhead. *)
let explore_probe c (req : R.t) =
  match req with
  | R.Explore { spec = R.Builtin name; params } ->
      let g = Option.get (Hls_workloads.Catalog.find_graph name) in
      let space =
        match
          Hls_dse.Space.make ~latencies:params.R.latencies
            ~policies:params.R.policies
            ~libs:
              (List.filter_map
                 (fun n -> Option.map (fun l -> (n, l)) (Hls_dse.Space.lib_of_name n))
                 params.R.lib_names)
            ~balance:params.R.balance_axis ~recipes:params.R.recipes
            ~iterates:params.R.iterates ()
        with
        | Ok s -> s
        | Error e -> invalid_arg (Hls_dse.Space.axis_error_to_string e)
      in
      ignore
        (span c "dse.explore" (fun () ->
             Hls_dse.Explore.run ?workers:params.R.jobs g space))
  | _ -> ()

(* The critical-subgraph extraction the first iterate round makes on
   the one-shot schedule, and the incremental re-timing of its dirty set
   against a from-scratch rebuild of the same net. *)
let iterate_probe c (pt : point) =
  let s0 = pt.one_shot in
  let target = s0.Hls_sched.Frag_sched.latency - 1 in
  if target >= 1 then begin
    let sg =
      span c "iter.extract" (fun () -> Hls_iter.Subgraph.extract s0 ~target)
    in
    let dirty = sg.Hls_iter.Subgraph.nodes in
    count c "timing.dirty_nodes" (List.length dirty);
    let tg = Hls_sched.Frag_sched.graph s0 in
    let net, arrival =
      span c "timing.retime_scratch" (fun () ->
          let net = Hls_timing.Bitnet.build tg in
          (net, Hls_timing.Arrival.of_net net))
    in
    span c "timing.retime_incremental" (fun () ->
        match Hls_timing.Bitnet.rebuild_dirty net tg ~dirty with
        | Some net' -> ignore (Hls_timing.Arrival.update_of_net net' arrival ~dirty)
        | None -> failwith "rebuild_dirty refused an unmoved layout")
  end
