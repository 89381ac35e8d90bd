(** Domain-based job pool with exception isolation, per-job timeouts and
    bounded retry.

    Jobs are independent thunks.  Without [timeout_s], [workers]
    persistent domains race down a shared job counter (domain creation is
    expensive next to a millisecond job, so spawning once per worker is
    what makes small sweeps scale).  With [timeout_s], each job gets a
    disposable domain: a job exceeding the deadline is recorded as
    [Timed_out] and its domain abandoned — OCaml cannot preempt a domain,
    so the stray computation runs on harmlessly until process exit while
    the sweep continues.  In both modes a raising job is recorded as
    [Failed] with its {!Hls_util.Failure} classification; the exception
    never escapes the pool. *)

type 'a outcome =
  | Done of 'a
  | Failed of Hls_util.Failure.t
      (** classified escaped exception ({!Hls_util.Failure.classify_exn}) *)
  | Timed_out of float  (** seconds the job had been running *)

(** Recommended domain count, clamped to [1..8]. *)
val default_workers : unit -> int

(** [run ?workers ?timeout_s jobs] — results are index-aligned with
    [jobs].  A given [timeout_s] is honoured whenever [workers > 1], even
    for a single job; with [workers <= 1] jobs run inline in the calling
    domain: still exception-isolated, but [timeout_s] is ignored (a
    timeout needs a second domain to observe it). *)
val run :
  ?workers:int -> ?timeout_s:float -> (unit -> 'a) array -> 'a outcome array

val outcome_ok : 'a outcome -> 'a option

(** The taxonomy view of a non-[Done] outcome ([Timed_out] becomes
    {!Hls_util.Failure.Timeout}). *)
val failure_of_outcome : 'a outcome -> Hls_util.Failure.t option

(** When and how to re-dispatch failed jobs. *)
module Retry_policy : sig
  type t = {
    attempts : int;  (** total tries per job, including the first *)
    backoff_s : float;  (** delay before the 2nd try; doubles per round *)
    max_backoff_s : float;
    jitter : float;  (** +/- fraction of the delay, deterministic *)
    retry_on : Hls_util.Failure.t -> bool;
  }

  (** One attempt, no retries: plain [run] semantics. *)
  val none : t

  (** Defaults: 3 attempts, 50 ms base doubling to at most 2 s, 25 %
      deterministic jitter, retrying exactly the
      {!Hls_util.Failure.retryable} classes (so [Infeasible] points fail
      fast). *)
  val make :
    ?attempts:int -> ?backoff_s:float -> ?max_backoff_s:float ->
    ?jitter:float -> ?retry_on:(Hls_util.Failure.t -> bool) -> unit -> t

  val should_retry : t -> attempt:int -> Hls_util.Failure.t -> bool

  (** Backoff before re-dispatching [job] after its [attempt]-th try:
      exponential in [attempt] with jitter drawn deterministically from
      (attempt, job), so reruns back off identically. *)
  val delay_s : t -> attempt:int -> job:int -> float
end

(** [run_retry ?workers ?timeout_s ?retry jobs]: round-based retry on top
    of {!run} — run everything, re-dispatch the failures the policy
    accepts after its backoff, repeat until done or exhausted.  Returns
    each job's final outcome and its attempt count (>= 1).  Job thunks are
    probed by {!Hls_util.Faults.on_job} under their original index, so
    injected faults track a job across retries. *)
val run_retry :
  ?workers:int -> ?timeout_s:float -> ?retry:Retry_policy.t ->
  (unit -> 'a) array -> ('a outcome * int) array
