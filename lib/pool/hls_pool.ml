(* A small Domain-based job pool with exception isolation, per-job
   timeouts and bounded retry.

   Two execution strategies share the same interface:

   - Without a timeout, [workers] persistent domains race down a shared
     Atomic job counter.  Domain creation is expensive relative to a
     millisecond scheduling job (thread spawn + runtime synchronization),
     so spawning once per worker rather than once per job is what makes
     small sweeps actually scale.  Each result slot is written by exactly
     one domain and read only after [Domain.join], which provides the
     happens-before edge.

   - With a timeout, each job gets its own disposable domain (at most
     [workers] in flight) and the coordinator polls completion cells: a
     job past its deadline is recorded as [Timed_out] and its domain
     abandoned — OCaml cannot preempt a domain, so the stray computation
     runs on harmlessly until process exit while its slot is released and
     the sweep moves on.  Per-job spawn cost is the price of being able
     to walk away from a diverging job.

   In both strategies exceptions are caught *inside* the worker domain
   and classified into the shared failure taxonomy, so one raising job
   can never take the sweep down and callers can tell a permanently
   [Infeasible] point from a retryable [Timeout]/[Internal] fault.  With
   [workers <= 1] and no timeout, jobs run inline in the calling domain
   (still exception-isolated); a requested timeout always routes through
   the deadline strategy, even for a single job. *)

module Failure = Hls_util.Failure
module Tm = Hls_telemetry

type 'a outcome = Done of 'a | Failed of Failure.t | Timed_out of float

let default_workers () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* Wrap one job in a telemetry span carrying its stable index.  The
   armed check is hoisted out of [with_span] so the disabled path pays a
   single branch — no attribute list is ever allocated. *)
let traced_job i job =
  if Tm.armed () then
    Tm.with_span ~cat:"pool" ~attrs:[ ("job", Tm.Int i) ] "job" job
  else job ()

type 'a flight = {
  idx : int;
  cell : ('a, Failure.t) result option Atomic.t;
  domain : unit Domain.t;
  started : float;
}

let run_serial jobs results =
  Array.iteri
    (fun i job ->
      results.(i) <-
        (match traced_job i job with
        | v -> Done v
        | exception e -> Failed (Failure.classify_exn e)))
    jobs

let run_pooled ~workers jobs results =
  let n = Array.length jobs in
  let next = Atomic.make 0 in
  let nworkers = min workers n in
  (* Per-worker busy seconds, written only by worker [w] and read after
     the joins; feeds the pool.utilization gauge. *)
  let busy = Array.make nworkers 0. in
  let worker w () =
    if Tm.armed () then Tm.name_track (Printf.sprintf "worker %d" w);
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if Tm.armed () then begin
          Tm.gauge "pool.queue_depth" (float_of_int (max 0 (n - i - 1)));
          let t0 = Unix.gettimeofday () in
          results.(i) <-
            (match traced_job i jobs.(i) with
            | v -> Done v
            | exception e -> Failed (Failure.classify_exn e));
          busy.(w) <- busy.(w) +. (Unix.gettimeofday () -. t0)
        end
        else
          results.(i) <-
            (match jobs.(i) () with
            | v -> Done v
            | exception e -> Failed (Failure.classify_exn e));
        loop ()
      end
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init nworkers (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join domains;
  if Tm.armed () then begin
    let wall = Unix.gettimeofday () -. t0 in
    Tm.gauge "pool.workers" (float_of_int nworkers);
    if wall > 0. then
      Tm.gauge "pool.utilization"
        (Array.fold_left ( +. ) 0. busy /. (wall *. float_of_int nworkers))
  end

let run_with_deadline ~workers ~timeout_s jobs results =
  let n = Array.length jobs in
  let next = ref 0 in
  let in_flight = ref [] in
  (* Kept in sync with [in_flight] so the poll loop never pays an O(n)
     [List.length] per iteration. *)
  let in_flight_count = ref 0 in
  let spawn i =
    let cell = Atomic.make None in
    let domain =
      Domain.spawn (fun () ->
          if Tm.armed () then
            Tm.name_track (Printf.sprintf "job %d (deadline)" i);
          let r =
            match traced_job i jobs.(i) with
            | v -> Ok v
            | exception e -> Error (Failure.classify_exn e)
          in
          Atomic.set cell (Some r))
    in
    { idx = i; cell; domain; started = Unix.gettimeofday () }
  in
  let note_in_flight () =
    if Tm.armed () then
      Tm.gauge "pool.in_flight" (float_of_int !in_flight_count)
  in
  while !next < n || !in_flight <> [] do
    while !next < n && !in_flight_count < workers do
      in_flight := spawn !next :: !in_flight;
      incr in_flight_count;
      incr next
    done;
    note_in_flight ();
    let now = Unix.gettimeofday () in
    in_flight :=
      List.filter
        (fun f ->
          let retire outcome =
            results.(f.idx) <- outcome;
            decr in_flight_count;
            false
          in
          match Atomic.get f.cell with
          | Some (Ok v) ->
              Domain.join f.domain;
              retire (Done v)
          | Some (Error fl) ->
              Domain.join f.domain;
              retire (Failed fl)
          | None ->
              if now -. f.started > timeout_s then
                (* abandoned, see module comment *)
                retire (Timed_out (now -. f.started))
              else true)
        !in_flight;
    if !in_flight <> [] then Unix.sleepf 0.0002
  done

let not_run = Failed (Failure.Internal (Stdlib.Failure "job not run"))

let run ?workers ?timeout_s jobs =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  let n = Array.length jobs in
  let results = Array.make n not_run in
  if n > 0 then begin
    match timeout_s with
    (* A timeout needs a second domain to observe it, so honour it
       whenever more than one domain was requested — even for a single
       job (a lone diverging job must not hang the sweep). *)
    | Some timeout_s when workers > 1 ->
        run_with_deadline ~workers ~timeout_s jobs results
    | Some _ | None ->
        if workers <= 1 || n = 1 then run_serial jobs results
        else run_pooled ~workers jobs results
  end;
  results

let outcome_ok = function Done v -> Some v | Failed _ | Timed_out _ -> None

let failure_of_outcome = function
  | Done _ -> None
  | Failed f -> Some f
  | Timed_out s -> Some (Failure.Timeout s)

(* ------------------------------------------------------------------ *)
(* Retry with backoff.                                                 *)

module Retry_policy = struct
  type t = {
    attempts : int;  (** total tries per job, including the first *)
    backoff_s : float;  (** delay before the 2nd try; doubles per round *)
    max_backoff_s : float;
    jitter : float;  (** +/- fraction of the delay, deterministic *)
    retry_on : Failure.t -> bool;
  }

  let none =
    {
      attempts = 1;
      backoff_s = 0.;
      max_backoff_s = 0.;
      jitter = 0.;
      retry_on = (fun _ -> false);
    }

  let make ?(attempts = 3) ?(backoff_s = 0.05) ?(max_backoff_s = 2.0)
      ?(jitter = 0.25) ?(retry_on = Failure.retryable) () =
    if attempts < 1 then invalid_arg "Retry_policy.make: attempts must be >= 1";
    if backoff_s < 0. || max_backoff_s < 0. then
      invalid_arg "Retry_policy.make: negative backoff";
    if jitter < 0. || jitter > 1. then
      invalid_arg "Retry_policy.make: jitter must be in [0, 1]";
    { attempts; backoff_s; max_backoff_s; jitter; retry_on }

  let should_retry t ~attempt f = attempt < t.attempts && t.retry_on f

  (* Exponential backoff with deterministic jitter: the delay before
     re-dispatching [job] after its [attempt]-th try.  The jitter factor
     is drawn from a SplitMix stream seeded by (attempt, job), so reruns
     back off identically — reproducibility extends to the failure
     path. *)
  let delay_s t ~attempt ~job =
    if t.backoff_s <= 0. then 0.
    else
      let base =
        min t.max_backoff_s (t.backoff_s *. (2. ** float_of_int (attempt - 1)))
      in
      if t.jitter = 0. then base
      else
        let prng = Hls_util.Prng.create ~seed:((attempt * 8191) + job) in
        let u = float_of_int (Hls_util.Prng.int prng 10_000) /. 10_000. in
        base *. (1. -. t.jitter +. (2. *. t.jitter *. u))
end

(* Round-based retry: run everything, collect the retryable failures,
   back off, re-dispatch them as the next round's batch.  Results stay
   index-aligned; the attempt count per job rides along.  Each job thunk
   is wrapped with the {!Hls_util.Faults} probe under its *original*
   index, so injected faults track a job across retries. *)
let run_retry ?workers ?timeout_s ?(retry = Retry_policy.none) jobs =
  let n = Array.length jobs in
  let wrapped =
    Array.mapi
      (fun i job () ->
        Hls_util.Faults.on_job i;
        job ())
      jobs
  in
  let results = Array.make n not_run in
  let attempts = Array.make n 0 in
  let pending = ref (List.init n Fun.id) in
  let round = ref 0 in
  while !pending <> [] do
    incr round;
    let idxs = Array.of_list !pending in
    let batch = Array.map (fun i -> wrapped.(i)) idxs in
    let out = run ?workers ?timeout_s batch in
    let again = ref [] in
    Array.iteri
      (fun k o ->
        let i = idxs.(k) in
        attempts.(i) <- attempts.(i) + 1;
        results.(i) <- o;
        match failure_of_outcome o with
        | Some f when Retry_policy.should_retry retry ~attempt:!round f ->
            again := i :: !again
        | Some _ | None -> ())
      out;
    pending := List.rev !again;
    if !pending <> [] then begin
      let delay =
        List.fold_left
          (fun acc i ->
            Float.max acc (Retry_policy.delay_s retry ~attempt:!round ~job:i))
          0. !pending
      in
      if Tm.armed () then begin
        Tm.count ~n:(List.length !pending) "pool.retries";
        Tm.event "retry-round"
          ~attrs:
            [
              ("round", Tm.Int !round);
              ("pending", Tm.Int (List.length !pending));
              ("backoff_s", Tm.Float delay);
            ]
      end;
      if delay > 0. then Unix.sleepf delay
    end
  done;
  Array.map2 (fun o a -> (o, a)) results attempts
