(** Feedback-guided iterative scheduling: extract the critical region
    incompatible with one cycle fewer ({!Subgraph}), re-plan and
    re-schedule at [latency - 1] under the same chaining budget with a
    chain cap at the incumbent's achieved peak (clean-op fragments
    pinned first, unpinned fallback), accept only strict improvements,
    repeat to convergence or a round budget.  Monotone by construction:
    every accepted round has one cycle fewer and a chain no longer than
    the incumbent's, so the result is never worse than the one-shot
    schedule in cycles, clock, or their product. *)

type round = {
  r_index : int;  (** 1-based *)
  r_target : int;  (** latency attempted this round *)
  r_cap : int;  (** chain cap enforced (δ) *)
  r_region : int;  (** nodes in the extracted critical region *)
  r_region_adds : int;
  r_pinned : bool;
      (** the accepting attempt kept clean-op fragments pinned *)
  r_accepted : bool;
  r_latency : int;  (** best latency after the round *)
  r_delta : int;  (** best achieved chain after the round (δ) *)
}

type stop =
  | Budget  (** round budget exhausted with the last round accepted *)
  | Greedy_stuck  (** both attempts infeasible at the smaller latency *)
  | Certified
      (** relaxation witness proves one cycle fewer fits no schedule *)
  | Floor  (** latency is already 1 — nothing below it *)

type outcome = {
  o_initial_latency : int;
  o_final_latency : int;
  o_initial_delta : int;  (** one-shot achieved chain (δ) *)
  o_final_delta : int;
  o_rounds : round list;  (** chronological; both accepted and rejected *)
  o_stop : stop;
  o_schedule : Hls_sched.Frag_sched.t;  (** the best schedule found *)
}

val stop_to_string : stop -> string

(** Latency saved relative to the one-shot, in percent (0 when the
    initial latency is 0). *)
val saved_pct : outcome -> float

(** [improve s0] iterates from an existing schedule.  [verify] keeps the
    independent from-scratch checker in the loop: an accepted round must
    pass {!Hls_sched.Frag_sched.verify} (default off — the checker is
    the tests' oracle, not a hot-path cost).  [max_rounds] bounds
    accepted rounds (default 8).  [policy] is the fragmentation policy
    of the re-planning rounds; [net]/[arrival] are the *source kernel's*
    dependency net and arrival analysis (latency-independent, so one
    pair serves every round — a sweep passes its prepared state).  Each
    round builds its re-planned graph's net once, for both attempts, and
    runs as one [iter.round] telemetry span with the children
    [iter.extract], [iter.witness], [iter.replan] and one
    [iter.schedule] per attempt. *)
val improve :
  ?balance:bool ->
  ?verify:bool ->
  ?max_rounds:int ->
  ?policy:Hls_fragment.Mobility.policy ->
  ?net:Hls_timing.Bitnet.t ->
  ?arrival:Hls_timing.Arrival.t ->
  Hls_sched.Frag_sched.t ->
  outcome

(** One-shot schedule, then {!improve}. *)
val run :
  ?balance:bool ->
  ?verify:bool ->
  ?max_rounds:int ->
  ?policy:Hls_fragment.Mobility.policy ->
  ?net:Hls_timing.Bitnet.t ->
  ?arrival:Hls_timing.Arrival.t ->
  Hls_fragment.Transform.t ->
  outcome

val pp_round : Format.formatter -> round -> unit
val pp : Format.formatter -> outcome -> unit
