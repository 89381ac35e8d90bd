(* The request daemon: line-delimited JSON over a Unix-domain socket, a
   TCP socket, or both.

   One coordinator thread owns everything.  It runs on Loop, the
   readiness loop shared with the router, which owns the sockets, line
   framing, writes and read timeouts; this module decodes each complete
   line into an Api request and admits it to a bounded queue.  Each loop
   round executes one batch through Exec.run_batch — pure per-request
   suffixes fan out over a domain pool while explore requests (which own
   a pool and write the shared sweep cache) run serially in the
   coordinator — then returns to select, polling rather than sleeping
   while work is queued, so fresh lines are read between batches even
   while a deep queue works off.  Pings are answered at decode time,
   never queued: liveness probes do not wait on batch latency and cannot
   be shed Overloaded.  Responses go back on the connection the request came
   from; requests carry ids, and a shed response can overtake an
   admitted one, so clients match on id rather than order.

   Backpressure is admission control, never buffering: when the queue is
   full the request is answered Overloaded (exit code 6, retryable)
   immediately and nothing is stored — the daemon's memory does not grow
   with offered load.  Requests carrying a deadline_ms that has already
   passed are shed the same way, as a retryable Timeout, and the
   deadline rides into Exec so work whose client gave up while it was
   queued never reaches a worker.

   A SIGTERM (or the caller's stop flag) drains: nothing new is read,
   the queue is executed until empty or until the grace window closes,
   responses are flushed, and whatever the grace window cut off is
   answered Unavailable (exit code 8, retryable) so no accepted line
   ever goes unanswered.  Queued explore requests are shed Unavailable
   at drain time rather than executed: they run serially and cannot be
   preempted, so only shedding keeps the drain genuinely bounded. *)

module R = Hls_api.Request
module Resp = Hls_api.Response

type config = {
  socket : string option;
  listen : (string * int) option;
  max_queue : int;
  batch : int;
  workers : int option;
  max_line : int;
  max_conns : int;
  io_timeout_s : float option;
  grace_s : float;
}

let default_config ~socket =
  {
    socket = Some socket;
    listen = None;
    max_queue = 64;
    batch = 16;
    workers = None;
    max_line = 8 * 1024 * 1024;
    max_conns = 256;
    io_timeout_s = None;
    grace_s = 5.0;
  }

(* Decode one line and either admit it or answer immediately.  [admit]
   returns false when the queue is full.  A request whose deadline has
   already passed is shed here — admission control, like Overloaded. *)
let handle_line ~admit conn line =
  if String.trim line = "" then ()
  else
    match R.envelope_of_string line with
    | Error (`Usage m) -> Loop.respond conn (Resp.fail (Resp.Usage m))
    | Error (`Unsupported_version n) ->
        Loop.respond conn (Resp.fail (Resp.Unsupported_version n))
    | Ok { R.env_id = id; env_req = R.Ping; _ } ->
        (* Liveness must not depend on queue capacity or batch latency:
           a ping is answered at decode time, never admitted, so a
           health-checker's probe cannot be shed Overloaded or stuck
           behind a batch that is already queued. *)
        Loop.respond conn
          { Resp.id; result = Ok (Resp.Pong { pong_pid = Unix.getpid () }) }
    | Ok { R.env_id = id; env_deadline_ms; env_req } -> (
        match env_deadline_ms with
        | Some d when Hls_api.Exec.expired d ->
            Hls_telemetry.count "server.deadline_shed";
            Loop.respond conn
              (Resp.fail ?id (Resp.Failed (Hls_api.Exec.deadline_failure d)))
        | _ -> (
            match admit (conn, id, env_deadline_ms, env_req) with
            | `Admitted -> ()
            | `Overloaded (queued, capacity) ->
                Hls_telemetry.count "server.overloaded";
                Loop.respond conn
                  (Resp.fail ?id (Resp.Overloaded { queued; capacity }))))

let serve ?(stop = Atomic.make false) ?(handle_signals = false) cfg exec =
  let loop =
    Loop.create ~handle_signals ~stop
      {
        Loop.name = "server";
        socket = cfg.socket;
        listen = cfg.listen;
        max_line = cfg.max_line;
        max_conns = Some cfg.max_conns;
        io_timeout_s = cfg.io_timeout_s;
        grace_s = cfg.grace_s;
      }
  in
  let pending : (Loop.conn * string option * float option * R.t) Queue.t =
    Queue.create ()
  in
  let admit item =
    if Queue.length pending >= cfg.max_queue then
      `Overloaded (Queue.length pending, cfg.max_queue)
    else begin
      Queue.add item pending;
      Hls_telemetry.gauge "server.queue_depth" (float (Queue.length pending));
      `Admitted
    end
  in
  let drain_deadline = ref None in
  let shed_pending keep reason =
    let kept = Queue.create () in
    Queue.iter
      (fun ((conn, id, _, req) as item) ->
        if keep req then Queue.add item kept
        else begin
          Hls_telemetry.count "server.drain_shed";
          Loop.respond conn (Resp.fail ?id (Resp.Unavailable reason))
        end)
      pending;
    Queue.clear pending;
    Queue.transfer kept pending
  in
  let run_one_batch () =
    let n = min cfg.batch (Queue.length pending) in
    let items = Array.init n (fun _ -> Queue.pop pending) in
    let reqs = Array.map (fun (_, _, _, r) -> r) items in
    let deadlines = Array.map (fun (_, _, d, _) -> d) items in
    (* During drain, bound each batch by what's left of the grace
       window so a wedged request cannot hold shutdown forever. *)
    let timeout_s =
      Option.map (fun d -> max 0.1 (d -. Unix.gettimeofday ())) !drain_deadline
    in
    let results =
      Hls_telemetry.with_span ~cat:"server"
        ~attrs:[ ("batch", Hls_telemetry.Int n) ]
        "server.batch"
        (fun () ->
          Hls_api.Exec.run_batch ?workers:cfg.workers ?timeout_s ~deadlines
            exec reqs)
    in
    Array.iteri
      (fun i (conn, id, _, _) ->
        Loop.respond conn { Resp.id; result = results.(i) })
      items;
    Hls_telemetry.gauge "server.queue_depth" (float (Queue.length pending))
  in
  Loop.run loop
    {
      Loop.on_line = handle_line ~admit;
      (* One batch per select round: between batches the loop returns to
         select, so pings and fresh lines are read even while a deep
         queue works off.  With work still queued select only polls.
         While draining nothing new is read and the rounds keep running
         batches until the queue is empty or the grace window closes. *)
      on_turn =
        (fun _ ->
          if not (Queue.is_empty pending) then run_one_batch ();
          if Queue.is_empty pending then infinity else 0.);
      extra = (fun () -> []);
      owes =
        (fun c ->
          Queue.fold (fun acc (qc, _, _, _) -> acc || qc == c) false pending);
      busy = (fun () -> not (Queue.is_empty pending));
      on_drain =
        (fun d ->
          drain_deadline := Some d;
          (* Explore requests run serially and cannot be preempted once
             they start, so the grace window cannot bound them: they are
             shed up front as the retryable Unavailable rather than
             allowed to hold shutdown past the grace the operator asked
             for. *)
          shed_pending
            (function R.Explore _ -> false | _ -> true)
            "draining: explore cannot be bounded by the shutdown grace");
      on_drained =
        (fun () ->
          (* Grace expired with work still queued: every accepted line
             still gets an answer, just not the one the client hoped
             for. *)
          shed_pending (fun _ -> false) "draining: shutdown grace expired");
    }

(* One-process fallback: NDJSON over stdin/stdout, no socket, no pool —
   each request runs in the calling domain as the CLI would run it. *)
let serve_stdio exec ic oc =
  let respond resp =
    output_string oc (Resp.to_string resp);
    output_char oc '\n';
    flush oc
  in
  try
    while true do
      let line = input_line ic in
      if String.trim line <> "" then
        match R.envelope_of_string line with
        | Error (`Usage m) -> respond (Resp.fail (Resp.Usage m))
        | Error (`Unsupported_version n) ->
            respond (Resp.fail (Resp.Unsupported_version n))
        | Ok { R.env_id = id; env_deadline_ms; env_req } ->
            respond
              { Resp.id;
                result =
                  Hls_api.Exec.run ?deadline:env_deadline_ms exec env_req }
    done
  with End_of_file -> ()
