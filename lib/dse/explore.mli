(** The sweep driver: expand a {!Space} into jobs, satisfy what it can
    from the {!Cache}, fan the rest out over the {!Hls_pool}, and reduce the
    reports to a {!Pareto} frontier.

    The latency-independent prefix of the optimized flow — the
    behavioural transformation recipe, kernel extraction, the kernel's
    bit-dependency net and arrival analysis
    ({!Hls_core.Pipeline.prepare}) — runs once per distinct recipe spec;
    workers only execute the per-point suffix.  Points are collected in
    job order, so results are identical whatever the worker count.

    Resilience: transient faults are retried under the given
    {!Hls_pool.Retry_policy} (permanently [Infeasible] points fail fast), a
    failed or timed-out fragmented flow can degrade to the direct
    (conventional) flow instead of losing its point, and the cache is
    journaled after every round so a killed sweep resumes from everything
    it had computed. *)

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
  f_class : Hls_util.Failure.t;
  f_reason : string;
  f_attempts : int;  (** attempts consumed before giving up *)
}

(** What each recipe of the sweep's transformation axis did to the
    behavioural graph, condensed from the engine's pass log. *)
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
      (** successful sweep points, stably sorted on the full job key
          ({!Space.compare_job}) so reports are reproducible whatever the
          round structure or worker count *)
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
          totals accumulated during this run, in pipeline-flow order;
          empty when {!Hls_telemetry} was not armed *)
  counters : (string * int) list;
      (** telemetry counter deltas accumulated during this run (e.g.
          [timing.rounds], [cache.hit]), sorted by name; empty when
          {!Hls_telemetry} was not armed *)
  gauges : (string * (float * float)) list;
      (** telemetry gauges as (name, (last, max)) at the end of the run
          (e.g. [timing.levels]), sorted by name; empty when
          {!Hls_telemetry} was not armed *)
}

(** Pool attempts beyond each point's first — the sweep's retry bill. *)
val extra_attempts : t -> int

val objectives : point -> Pareto.objectives

(** [run ?workers ?timeout_s ?cache ?feedback ?retry ?degrade graph
    space].  [feedback] bounds the refinement rounds: after each round
    the latency axis is probed one step either side of every frontier
    point until nothing new remains or the bound is hit (default 0: plain
    sweep).  [retry] (default {!Hls_pool.Retry_policy.none}) re-dispatches
    jobs whose failure class the policy accepts, with exponential
    backoff.  With [degrade] (default false), a job whose fragmented flow
    still fails falls back to the direct flow and survives as a point
    marked [degraded] — never cached, since its metrics are not the
    optimized flow's.  Remaining failures are recorded with their class
    and attempt count and the sweep continues.  The cache is journaled
    after every round and flushed before returning (its lock is NOT
    released — callers that own the cache call {!Cache.close}).
    [verify] (default [Off]) is the equivalence-gate policy applied when
    the recipes of the transformation axis are run. *)
val run :
  ?workers:int -> ?timeout_s:float -> ?cache:Cache.t -> ?feedback:int ->
  ?retry:Hls_pool.Retry_policy.t -> ?degrade:bool ->
  ?verify:Hls_xform.Verify.policy ->
  Hls_dfg.Graph.t -> Space.t -> t

(** The sweep document's wire shape; {!to_json} and {!of_json} are its
    two directions. *)
val codec : t Codec.t

val to_json : t -> Dse_json.t

(** Exact inverse of {!to_json} — [to_json (of_json (to_json t)) = to_json t]
    — so a sweep can cross the wire (the api's explore response) and
    re-render identically.  Failure classes decode through
    {!Codec.failure}; libraries are resolved by name through
    {!Space.known_libs}, so a sweep of a custom library object does not
    round-trip. *)
val of_json : Dse_json.t -> (t, string) result

val pp : Format.formatter -> t -> unit
