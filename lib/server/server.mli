(** The request daemon: line-delimited JSON (one {!Hls_api.Request}
    envelope per line) over a Unix-domain socket, a TCP socket, or both.

    A single coordinator runs on {!Loop}, the readiness loop shared with
    the router: it reads lines, admits decoded requests to a bounded
    queue, and executes one batch per loop round through
    {!Hls_api.Exec.run_batch} — pure request suffixes fan out over a
    domain pool; explore requests run serially in the coordinator (they
    own a pool and write the shared sweep cache).  Between batches the
    loop returns to select, and [Ping] is answered at decode time
    without queueing, so liveness probes never wait on batch latency.
    Requests carry ids and responses can reorder across requests (a shed
    [Overloaded] answer overtakes admitted work), so clients match on
    id.

    Backpressure is admission control: a request arriving on a full
    queue is answered [Overloaded] (exit code 6, retryable) immediately
    and never stored, so memory does not grow with offered load.  An
    envelope [deadline_ms] already in the past is shed the same way as a
    retryable timeout (exit code 4), and the deadline rides into
    {!Hls_api.Exec} so work whose client gave up while queued is shed at
    dispatch instead of burning a worker.

    Shutdown (SIGTERM / the [stop] flag) drains within a bounded grace
    window; queued work the window cuts off is answered [Unavailable]
    (exit code 8, retryable) — every accepted line gets an answer.
    Queued explore requests are shed [Unavailable] at drain time instead
    of executed: serial work cannot be preempted once started, and the
    grace bound beats best effort. *)

type config = {
  socket : string option;  (** path of the Unix-domain socket, if any *)
  listen : (string * int) option;  (** TCP (host, port) endpoint, if any *)
  max_queue : int;  (** admission bound: beyond this, requests shed *)
  batch : int;  (** max requests per pool batch *)
  workers : int option;  (** pool domains; [None] = auto *)
  max_line : int;  (** bytes before an unterminated line is rejected *)
  max_conns : int;  (** live connections before new ones are refused *)
  io_timeout_s : float option;
      (** bound on response writes (SO_SNDTIMEO) and on connections
          stalled mid-line; [None] = wait forever *)
  grace_s : float;  (** shutdown drain window, seconds *)
}

(** Unix socket only, 64-deep queue, batches of 16, auto workers, 8 MiB
    line cap, 256 connections, no io timeout, 5 s drain grace. *)
val default_config : socket:string -> config

(** [serve ?stop ?handle_signals cfg exec] runs until [stop] becomes
    true — with [handle_signals] (the daemon entry point), SIGTERM and
    SIGINT set it.  Shutdown drains: lines already received are decoded,
    the queue is executed until empty or until [grace_s] runs out
    (leftovers answered [Unavailable]) and every response flushed before
    [serve] returns and the socket file is removed.  Tests run [serve]
    in a domain and flip their own [stop] flag.

    Raises [Invalid_argument] when the config names no endpoint at all,
    or when the TCP host cannot be resolved. *)
val serve :
  ?stop:bool Atomic.t -> ?handle_signals:bool -> config -> Hls_api.Exec.t ->
  unit

(** NDJSON over arbitrary channels (the [--stdio] mode): one request per
    line in, one response per line out, no socket and no pool; envelope
    deadlines are honoured.  Returns on EOF. *)
val serve_stdio : Hls_api.Exec.t -> in_channel -> out_channel -> unit
