(** The differential lane: original vs transformed, behavioural and
    cycle-accurate.

    A {!transform} is any graph-to-graph function under test — the
    preset rewrite recipes by default, or a deliberately buggy pass from
    the test-suite's hook.  {!behavioural} compares both sides with
    {!sampled}; {!scheduled} pushes the graph through the
    full optimized flow (optionally with an iteration budget) and replays
    the schedule cycle-accurately ({!Hls_rtl.Cycle_sim}), comparing
    against the behavioural reference. *)

type transform = {
  t_name : string;
  t_apply : Hls_dfg.Graph.t -> Hls_dfg.Graph.t;
}

val presets : unit -> transform list
(** One transform per preset recipe (cleanup, standard, aggressive),
    applied with the verification gate off — the fuzzer is the gate. *)

type verdict =
  | Match
  | Skip of string  (** infeasible point, oversized graph, ... *)
  | Mismatch of string

val sampled :
  Hls_dfg.Graph.t -> Hls_dfg.Graph.t -> vectors:int -> prng:Hls_util.Prng.t ->
  (unit, string) result
(** The fuzz lanes' behavioural check: {!Hls_check.equivalent} on the
    corner vectors plus [vectors] random ones, never exhaustive, seeded
    by one draw from [prng] so that each lane stays reproducible from its
    own seed.  [Error] carries the rendered counterexample, or the
    checker's complaint when the graphs share no output.  The test suite
    checks its transformations with it too. *)

val behavioural :
  Hls_dfg.Graph.t -> transform -> vectors:int -> prng:Hls_util.Prng.t ->
  verdict

val scheduled :
  Hls_dfg.Graph.t -> iterate:int -> latency:int -> vectors:int ->
  prng:Hls_util.Prng.t -> verdict
(** Schedule at [latency] (iterating when [iterate > 0]) and compare the
    cycle-accurate fragment execution with the behavioural simulation.
    Infeasible latencies are {!Skip}s, not findings. *)
