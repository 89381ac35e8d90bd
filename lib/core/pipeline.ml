(** The three synthesis flows the paper compares.

    - {!conventional}: the baseline — schedule the original behavioural
      specification with an operation-atomic chaining scheduler at the
      minimal feasible cycle, then share functional units and registers.
    - {!optimized}: the paper's method — operative kernel extraction
      (§3.1), cycle estimation (§3.2), operation fragmentation (§3.3), a
      conventional schedule of the fragments, dedicated adders, bit-level
      registers.
    - {!blc}: the strongest prior art (bit-level chaining): operations stay
      atomic but overlap at the bit level within a cycle; dedicated FUs.

    Every flow returns the same report shape so tables compare directly. *)

module Graph = Hls_dfg.Graph
module Datapath = Hls_alloc.Datapath

(* Phase spans of the optimized flow; inert (one branch) unless a
   measuring run armed the telemetry sink. *)
let span name f = Hls_telemetry.with_span ~cat:"pipeline" name f

(* Teach the shared taxonomy this stack's permanent faults: a fragment
   plan whose budget cannot cover the critical path (Mobility's witnessed
   infeasibility) and a fragment schedule with no legal placement.  Both
   mean the design point itself cannot exist — retrying is pointless.
   Runs at module initialization, before any worker domain is spawned. *)
let () =
  Hls_util.Failure.register_classifier (function
    | Hls_sched.Frag_sched.Infeasible m ->
        Some (Hls_util.Failure.Infeasible m)
    | e ->
        Option.map
          (fun m -> Hls_util.Failure.Infeasible m)
          (Hls_fragment.Mobility.infeasibility_of_exn e))

(** Classify an exception escaping one of this module's flows. *)
let classify_exn = Hls_util.Failure.classify_exn

type report = {
  flow : string;
  latency : int;
  cycle_delta : int;  (** cycle length in δ (chained 1-bit additions) *)
  cycle_ns : float;
  execution_ns : float;
  op_count : int;
      (** operations in the specification: for the optimized flow this is
          the operation count *after kernel extraction* — fragments still
          belong to their parent operation, matching how the paper counts
          its "+34 %" growth *)
  fragment_count : int;  (** additions actually scheduled (fragments) *)
  datapath : Datapath.t;
  area : Datapath.area;
}

let report ~flow ~lib ~op_count ?(fragment_count = op_count)
    (dp : Datapath.t) =
  {
    flow;
    latency = dp.Datapath.latency;
    cycle_delta = dp.Datapath.chain_delta;
    cycle_ns = Datapath.cycle_ns lib dp;
    execution_ns = Datapath.execution_ns lib dp;
    op_count;
    fragment_count;
    datapath = dp;
    area = Datapath.area lib dp;
  }

(** Baseline flow on the original behavioural graph.  Operation delays
    come from the technology library, so a carry-lookahead library gives
    the baseline its faster (logarithmic-depth) atoms. *)
let conventional ?(lib = Hls_techlib.default) graph ~latency =
  let delay = Hls_sched.Op_delay.delay_with ~lib in
  let sched = Hls_sched.List_sched.schedule ~delay graph ~latency in
  let dp = Hls_alloc.Bind_shared.bind sched in
  report ~flow:"conventional" ~lib
    ~op_count:(Graph.behavioural_op_count graph)
    dp

(** Bit-level-chaining baseline on the original behavioural graph. *)
let blc ?(lib = Hls_techlib.default) graph ~latency =
  let sched = Hls_sched.Blc_sched.schedule graph ~latency in
  let dp = Hls_alloc.Bind_blc.bind sched in
  report ~flow:"blc" ~lib ~op_count:(Graph.behavioural_op_count graph) dp

type optimized_result = {
  opt_report : report;
  kernel : Graph.t;  (** graph after operative kernel extraction *)
  transformed : Hls_fragment.Transform.t;
  schedule : Hls_sched.Frag_sched.t;
  iteration : Hls_iter.Iter.outcome option;
      (** per-round audit of the feedback-guided scheduling loop; [None]
          when the point ran one-shot ([config.iterate = 0]) *)
}

(** Behavioural transformation of the specification graph, before any
    kernel extraction: run the [transform] recipe through the verified
    pass manager.  Returns the (possibly rewritten) graph and the pass
    log.  An empty recipe is free. *)
let transform_graph ?(transform = Hls_xform.Recipe.none)
    ?(verify = Hls_xform.Verify.Off) graph =
  if transform.Hls_xform.Recipe.steps = [] then (graph, [])
  else
    let o =
      span "transform" (fun () ->
          Hls_xform.Engine.apply ~policy:verify transform graph)
    in
    (o.Hls_xform.Engine.graph, o.Hls_xform.Engine.log)

(** The shared prefix of the optimized flow: the behavioural
    transformation recipe, then operative kernel extraction.  It depends
    only on the graph (not on latency, policy or library), which is what
    makes it worth memoizing across a design-space sweep. *)
let prepare_kernel ?transform ?verify graph =
  let g, _log = transform_graph ?transform ?verify graph in
  span "kernel" (fun () -> Hls_kernel.Extract.run g)

type prepared = {
  p_kernel : Graph.t;  (** graph after operative kernel extraction *)
  p_net : Hls_timing.Bitnet.t;  (** dependency net of the kernel *)
  p_arrival : Hls_timing.Arrival.t;
      (** arrival analysis of the kernel — latency-independent, so one
          result serves every point of a latency sweep *)
  p_xform : Hls_xform.Engine.entry list;
      (** pass log of the behavioural transformation that preceded
          extraction; empty when prepared from a bare kernel *)
}

(** Extend an already extracted kernel with its dependency net and arrival
    analysis, both latency-independent. *)
let prepared_of_kernel kernel =
  let net = span "bitnet" (fun () -> Hls_timing.Bitnet.build kernel) in
  let arrival = span "arrival" (fun () -> Hls_timing.Arrival.of_net net) in
  { p_kernel = kernel; p_net = net; p_arrival = arrival; p_xform = [] }

(** Behavioural transformation, kernel extraction, then the
    latency-independent timing prework. *)
let prepare ?transform ?verify graph =
  let g, log = transform_graph ?transform ?verify graph in
  let kernel = span "kernel" (fun () -> Hls_kernel.Extract.run g) in
  { (prepared_of_kernel kernel) with p_xform = log }

(** One record for every per-point knob of the optimized flow.
    [transform] and [verify] only matter to the entry points that start
    from a bare graph ({!run_graph}); {!run} takes an already
    [prepare]d kernel, whose transformation decision was made when it
    was prepared. *)
type config = {
  lib : Hls_techlib.t;
  policy : Hls_fragment.Mobility.policy;
  balance : bool;
  transform : Hls_xform.Recipe.t;
  verify : Hls_xform.Verify.policy;
  iterate : int;
      (** accepted-round budget of the feedback-guided scheduling loop;
          0 (the default) keeps the one-shot greedy schedule *)
}

let default_config =
  { lib = Hls_techlib.default; policy = `Full; balance = true;
    transform = Hls_xform.Recipe.none; verify = Hls_xform.Verify.Off;
    iterate = 0 }

let make_config ?(lib = Hls_techlib.default) ?(policy = `Full)
    ?(balance = true) ?(transform = Hls_xform.Recipe.none)
    ?(verify = Hls_xform.Verify.Off) ?(iterate = 0) () =
  { lib; policy; balance; transform; verify; iterate }

(** The per-point suffix of the optimized flow on prepared timing state:
    cycle estimation + fragmentation ([policy]), fragment scheduling
    ([balance]), dedicated-adder binding.  The kernel's net and arrival are
    reused, so a latency sweep pays for them once. *)
let optimized_of_prepared ?(lib = Hls_techlib.default) ?policy ?balance
    ?(iterate = 0) p ~latency =
  (* Transform.run = Mobility.compute + Transform.apply; split here so the
     two phases span separately. *)
  let plan =
    span "mobility" (fun () ->
        Hls_fragment.Mobility.compute ?policy ~net:p.p_net
          ~arrival:p.p_arrival p.p_kernel ~latency)
  in
  let transformed =
    span "fragment" (fun () -> Hls_fragment.Transform.apply p.p_kernel plan)
  in
  let schedule =
    span "schedule" (fun () ->
        Hls_sched.Frag_sched.schedule ?balance transformed)
  in
  (* The feedback loop only ever drops cycles at a chain no longer than
     the one-shot's, so binding the iterated schedule is never worse than
     binding the one-shot.  The kernel's net and arrival serve every
     re-planning round. *)
  let schedule, iteration =
    if iterate > 0 then begin
      let o =
        span "iterate" (fun () ->
            Hls_iter.Iter.improve ?balance ?policy ~net:p.p_net
              ~arrival:p.p_arrival ~max_rounds:iterate schedule)
      in
      (o.Hls_iter.Iter.o_schedule, Some o)
    end
    else (schedule, None)
  in
  let dp = span "bind" (fun () -> Hls_alloc.Bind_frag.bind schedule) in
  {
    opt_report =
      report ~flow:"optimized" ~lib
        ~op_count:(Graph.behavioural_op_count p.p_kernel)
        ~fragment_count:(Hls_fragment.Transform.op_count transformed)
        dp;
    kernel = p.p_kernel;
    transformed;
    schedule;
    iteration;
  }

(** The single supported per-point entry: the optimized-flow suffix under
    one [config], with the {!Hls_util.Failure} taxonomy instead of an
    escaping exception. *)
let run config p ~latency =
  match
    optimized_of_prepared ~lib:config.lib ~policy:config.policy
      ~balance:config.balance ~iterate:config.iterate p ~latency
  with
  | r -> Ok r
  | exception e -> Error (classify_exn e)

(** Like {!run} with iteration forced on (at least one round), returning
    the per-round audit alongside the result. *)
let run_iterated config p ~latency =
  let config = { config with iterate = max 1 config.iterate } in
  match run config p ~latency with
  | Ok ({ iteration = Some o; _ } as r) -> Ok (r, o)
  | Ok { iteration = None; _ } ->
      Error
        (Hls_util.Failure.Internal
           (Stdlib.Failure "iterated run produced no audit"))
  | Error e -> Error e

(** {!prepare} + {!run} from a bare behavioural graph; preparation faults
    are classified too, so no exception escapes. *)
let run_graph config graph ~latency =
  match prepare ~transform:config.transform ~verify:config.verify graph with
  | p -> run config p ~latency
  | exception e -> Error (classify_exn e)

(** End-to-end functional check: the transformed, scheduled specification
    still computes the original behaviour.  Uses the combined strategy of
    {!Hls_check}: exhaustive when the input space is small, corner vectors
    plus [trials] random samples otherwise. *)
let check_optimized_equivalence ?(trials = 40) ?(seed = 99) graph result =
  match
    Hls_check.equivalent ~samples:trials ~seed graph
      result.transformed.Hls_fragment.Transform.graph
  with
  | Hls_check.Proved | Hls_check.Passed _ -> Ok ()
  | Hls_check.Failed _ as f ->
      Error (Format.asprintf "%a" Hls_check.pp_verdict f)

(** The latency a conventional tool would pick when free to choose: the
    ASAP schedule length at the tightest single-operation cycle (the
    paper's Table III uses the latency BC selects in free-floating mode). *)
let free_floating_latency graph =
  let c = Hls_sched.Op_delay.max_delay graph in
  let finish = Hls_sched.List_sched.asap_finish graph ~cycle_delta:c in
  Hls_sched.List_sched.latency_of_finish ~cycle_delta:c finish

(** Invert the period model on a prepared analysis: the smallest latency
    whose chain budget [(target - overhead - mux) / δ] covers the critical
    delta path.  [None] when even a 1 δ chain misses the target (the
    period is below the sequential overhead). *)
let latency_for_target ?(lib = Hls_techlib.default) p ~target_ns =
  let chain_budget =
    int_of_float
      ((target_ns -. lib.Hls_techlib.seq_overhead_ns
        -. lib.Hls_techlib.mux_delay_ns)
       /. lib.Hls_techlib.delta_ns)
  in
  if chain_budget < 1 then None
  else
    Some
      (Hls_timing.Critical_path.latency_for_cycle_delta
         ~critical:(Hls_timing.Arrival.critical_delta p.p_arrival)
         ~n_bits:chain_budget)

(** The dual problem: given a clock-period target in ns, find the smallest
    latency whose fragmented schedule meets it, and run the optimized flow
    there. *)
let optimized_for_cycle ?(lib = Hls_techlib.default) graph ~target_ns =
  let p = prepare graph in
  Option.map
    (fun latency -> (latency, optimized_of_prepared ~lib p ~latency))
    (latency_for_target ~lib p ~target_ns)

let pct_saved ~original ~optimized =
  Hls_util.Pretty.pct ~from:original ~to_:optimized

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s: latency %d, cycle %d delta = %.2f ns, exec %.2f ns, %d ops \
     (%d scheduled additions)@ %a@]"
    r.flow r.latency r.cycle_delta r.cycle_ns r.execution_ns r.op_count
    r.fragment_count Datapath.pp_area r.area
