(** The one executor behind every {!Request}: the CLI's subcommands, the
    request server and the tests all call [run] / [run_batch], so each
    verb has exactly one implementation.

    Execution is split so a server can batch safely: {!stage} runs on the
    coordinator (loads the spec, resolves the config, memoizes the
    latency-independent {!Hls_core.Pipeline.prepare} prefix per (graph
    digest, cleanup)); the staged thunk is the per-request suffix.
    [Pure] suffixes touch no shared state and may run on worker domains;
    [Serial] ones (explore: owns a pool, writes the shared sweep cache)
    must stay in the coordinator. *)

type t

(** [create ?cache ()] — the executor's shared state: the sweep cache
    (memory-only unless one is passed in) and the prepared-prefix memo.
    [timing_workers] is ignored; it is kept only so that existing
    callers still compile. *)
val create : ?cache:Hls_dse.Cache.t -> ?timing_workers:int -> unit -> t

(** Close the underlying sweep cache (flush + release). *)
val close : t -> unit

(** How many requests were served a memoized prepared prefix (tests). *)
val prepared_hits : t -> int

type staged =
  | Ready of (Response.payload, Response.error) result
      (** resolved during staging: usage errors, preparation faults *)
  | Pure of (unit -> Response.payload)
      (** safe on a worker domain; raises on failure *)
  | Serial of (unit -> Response.payload)  (** coordinator only *)

val stage : t -> Request.t -> staged

(** Execute one request in the calling domain.  Every flow fault comes
    back classified ({!Response.Failed}); no exception escapes.
    [deadline] is an absolute wall clock in ms since the Unix epoch
    (the envelope's [deadline_ms]); expired work is shed as a retryable
    {!Hls_util.Failure.Timeout} without executing. *)
val run :
  ?deadline:float -> t -> Request.t ->
  (Response.payload, Response.error) result

(** Execute a batch: [Pure] suffixes fan out over an {!Hls_pool}
    (probing {!Hls_util.Faults.on_job} under the request's batch index,
    so injected faults reach pooled requests), the rest run in the
    coordinator.  Results are index-aligned with [reqs].

    [deadlines] (index-aligned, absolute ms since the Unix epoch) sheds
    requests whose deadline has passed — at staging, or at dispatch if
    it expires while queued — as retryable timeouts.  [timeout_s] bounds
    each pure suffix the way {!Hls_pool.run} does (honoured when the
    pool runs multi-worker). *)
val run_batch :
  ?workers:int -> ?timeout_s:float -> ?deadlines:float option array ->
  t -> Request.t array ->
  (Response.payload, Response.error) result array

(** [expired d]: the absolute deadline [d] (ms since the Unix epoch) has
    passed.  The daemon and the router shed on it before admitting. *)
val expired : float -> bool

(** The retryable {!Hls_util.Failure.Timeout} an expired deadline [d] is
    shed with; it carries how many seconds past [d] it was noticed. *)
val deadline_failure : float -> Hls_util.Failure.t
