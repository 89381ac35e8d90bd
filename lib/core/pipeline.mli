(** The three synthesis flows the paper compares, with a common report
    shape. *)

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
  datapath : Hls_alloc.Datapath.t;
  area : Hls_alloc.Datapath.area;
}

(** Baseline flow on the original behavioural graph: operation-atomic
    chaining schedule at the minimal feasible cycle, shared FUs,
    whole-value registers.  Operation delays come from the technology
    library (carry-lookahead libraries get faster atoms). *)
val conventional :
  ?lib:Hls_techlib.t -> Hls_dfg.Graph.t -> latency:int -> report

(** Bit-level-chaining baseline: dedicated FUs, fastest cycles. *)
val blc : ?lib:Hls_techlib.t -> Hls_dfg.Graph.t -> latency:int -> report

type optimized_result = {
  opt_report : report;
  kernel : Hls_dfg.Graph.t;  (** graph after operative kernel extraction *)
  transformed : Hls_fragment.Transform.t;
  schedule : Hls_sched.Frag_sched.t;
  iteration : Hls_iter.Iter.outcome option;
      (** per-round audit of the feedback-guided scheduling loop; [None]
          when the point ran one-shot ([config.iterate = 0]) *)
}

(** The shared, latency-independent prefix of the optimized flow: the
    behavioural transformation recipe (verified pass by pass under
    [verify]), then operative kernel extraction.  Sweeps memoize this per
    graph and fan the suffix out over it. *)
val prepare_kernel :
  ?transform:Hls_xform.Recipe.t -> ?verify:Hls_xform.Verify.policy ->
  Hls_dfg.Graph.t -> Hls_dfg.Graph.t

type prepared = {
  p_kernel : Hls_dfg.Graph.t;  (** graph after operative kernel extraction *)
  p_net : Hls_timing.Bitnet.t;  (** dependency net of the kernel *)
  p_arrival : Hls_timing.Arrival.t;
      (** arrival analysis of the kernel — latency-independent, so one
          result serves every point of a latency sweep *)
  p_xform : Hls_xform.Engine.entry list;
      (** pass log of the behavioural transformation that preceded
          extraction; empty when prepared from a bare kernel *)
}

(** Behavioural transformation, kernel extraction, then the
    latency-independent timing prework (the kernel's dependency net and
    arrival analysis). *)
val prepare :
  ?transform:Hls_xform.Recipe.t -> ?verify:Hls_xform.Verify.policy ->
  Hls_dfg.Graph.t -> prepared

(** Extend an already extracted kernel with its timing prework. *)
val prepared_of_kernel : Hls_dfg.Graph.t -> prepared

(** One record for every per-point knob of the optimized flow.
    [transform] (a behavioural transformation recipe applied before
    kernel extraction) and [verify] (the equivalence-gate policy on its
    passes) only matter to the entry points that start from a bare graph
    ({!run_graph}); {!run} takes an already {!prepare}d kernel, whose
    transformation decision was made when it was prepared. *)
type config = {
  lib : Hls_techlib.t;
  policy : Hls_fragment.Mobility.policy;
  balance : bool;
  transform : Hls_xform.Recipe.t;
  verify : Hls_xform.Verify.policy;
  iterate : int;
      (** accepted-round budget of the feedback-guided scheduling loop
          ({!Hls_iter.Iter}); 0 (the default) keeps the one-shot greedy
          schedule *)
}

(** Ripple library, [`Full] fragmentation, balanced scheduling, no
    transformation — the paper's reproduction settings. *)
val default_config : config

(** Defaults as {!default_config}. *)
val make_config :
  ?lib:Hls_techlib.t -> ?policy:Hls_fragment.Mobility.policy ->
  ?balance:bool -> ?transform:Hls_xform.Recipe.t ->
  ?verify:Hls_xform.Verify.policy -> ?iterate:int -> unit -> config

(** The last fragmented graph, its {!Hls_timing.Bitnet} and its
    {!Hls_alloc.Bind_frag.view} seen by {!run} on one prepared kernel.
    Points whose plans cut every addition alike (at a fixed chaining
    budget, neighbouring latencies usually do) reuse all three instead of
    rebuilding them ({!Hls_fragment.Transform.apply} [~like]); each reuse
    of the view counts [bind.view_reused].  One [Atomic] cell over
    read-only values: safe to share between worker domains, and answers
    never depend on what it holds. *)
type frag_memo

(** An empty memo; give each prepared kernel its own. *)
val frag_memo : unit -> frag_memo

(** The single supported per-point entry of the optimized flow: cycle
    estimation → fragmentation → fragment scheduling → binding on
    prepared timing state, under one [config], returning the
    {!Hls_util.Failure} taxonomy instead of an escaping exception —
    [Error (Infeasible _)] for points that cannot exist (Mobility's
    witnessed budget violation, a fragment schedule with no legal
    placement), [Error (Resource _ | Internal _)] for faults a caller may
    retry.  Reuses the prepared net and arrival, so a latency sweep pays
    for them once per graph.  With [memo] it also reuses the previous
    point's fragmented graph, net and binding view when they were built
    from this kernel with the same cuts, and stores its own. *)
val run :
  ?memo:frag_memo -> config -> prepared -> latency:int ->
  (optimized_result, Hls_util.Failure.t) result

(** {!run} without the binding step: cycle estimation → fragmentation →
    fragment scheduling, then [config.iterate] rounds of the feedback
    loop, returning the final schedule and the loop's audit ([None] when
    [config.iterate = 0]).  For the verbs that read only the schedule
    (schedule, emit, simulate, iterate): they never pay for a datapath
    they would throw away.  Same failures as {!run}. *)
val run_schedule :
  config -> prepared -> latency:int ->
  ( Hls_sched.Frag_sched.t * Hls_iter.Iter.outcome option,
    Hls_util.Failure.t )
  result

(** Like {!run} with iteration forced on (at least one round even when
    [config.iterate = 0]), returning the per-round audit alongside the
    bound result.  The [iterate] verb reads only the audit and calls
    {!run_schedule} instead. *)
val run_iterated :
  config -> prepared -> latency:int ->
  (optimized_result * Hls_iter.Iter.outcome, Hls_util.Failure.t) result

(** {!prepare} (honouring [config.transform] and [config.verify]) +
    {!run} from a bare behavioural graph; preparation faults are
    classified too. *)
val run_graph :
  config -> Hls_dfg.Graph.t -> latency:int ->
  (optimized_result, Hls_util.Failure.t) result

(** Classify an exception escaping one of this module's flows into the
    shared taxonomy (infeasibility recognized as permanent). *)
val classify_exn : exn -> Hls_util.Failure.t

(** End-to-end functional check: the transformed, scheduled specification
    still computes the original behaviour. *)
val check_optimized_equivalence :
  ?trials:int -> ?seed:int -> Hls_dfg.Graph.t -> optimized_result ->
  (unit, string) result

(** The smallest latency whose chain budget [(target - overhead - mux) / δ]
    covers the prepared kernel's critical delta path; [None] when the
    period is below the sequential overhead. *)
val latency_for_target :
  ?lib:Hls_techlib.t -> prepared -> target_ns:float -> int option

(** The dual problem: given a clock-period target in ns, find the smallest
    latency whose fragmented schedule meets it and run the optimized flow
    there; [None] when the period is below the sequential overhead. *)
val optimized_for_cycle :
  ?lib:Hls_techlib.t -> Hls_dfg.Graph.t -> target_ns:float ->
  (int * optimized_result) option

(** The latency a conventional tool would pick when free to choose: the
    ASAP schedule length at the tightest single-operation cycle. *)
val free_floating_latency : Hls_dfg.Graph.t -> int

val pct_saved : original:float -> optimized:float -> float
val pp_report : Format.formatter -> report -> unit
