(** The sharded serving front end: accepts the same NDJSON protocol as
    the daemon, consistent-hashes each request by graph digest onto a
    backend ({!Ring}), health-checks the fleet ({!Health}) and fails
    in-flight work over to replicas under a retry budget.  Every verb but
    [Ping] and [Stats] (answered locally) is forwarded whole: a
    multi-latency explore runs on the one backend that owns its digest.

    Responses are re-encoded under the client's original id with the
    exact wire codec, so a routed answer is byte-identical to a one-shot
    one.  Shedding is typed end to end: [Overloaded] at the in-flight
    cap, the request's own [deadline_ms], and [Unavailable] (exit 8)
    when no healthy backend exists or a shutdown drain runs out of
    grace. *)

(** Router-owned child backends: [command i] is the argv that serves
    [socket_of i]; dead children are reaped and respawned. *)
type spawn = {
  count : int;
  command : int -> string array;
  socket_of : int -> string;
}

type config = {
  socket : string option;  (** Unix socket endpoint *)
  listen : (string * int) option;  (** TCP endpoint *)
  backends : string list;  (** externally managed backend addresses *)
  spawn : spawn option;
  max_inflight : int;  (** admission cap across queued + in-flight *)
  retry : Hls_pool.Retry_policy.t;  (** failover budget per request *)
  probe_interval_s : float;
  probe_timeout_s : float;
  eject_after : int;  (** consecutive failures before ejection *)
  cooldown_s : float;  (** ejection time before a half-open trial *)
  hold_s : float;  (** how long an unroutable request waits *)
  grace_s : float;  (** shutdown drain bound *)
  io_timeout_s : float option;
      (** bound on response writes (SO_SNDTIMEO on accepted client
          connections: a client that stops reading is dropped instead of
          wedging the coordinator) and on clients stalled mid-line (cut
          off with [Unavailable]); [None] = wait forever *)
  max_line : int;
}

(** No endpoints, no backends (set at least one of each), 256 in-flight,
    3 failover attempts at 50 ms backoff, 0.5 s probes with a 2 s
    timeout, eject after 3, 1 s cooldown, 5 s hold, 5 s grace, 30 s
    client io timeout.

    A probe timeout only fails a backend that is {e idle} from the
    router's point of view: while the backend owes the router in-flight
    answers, its single-threaded coordinator may legitimately hold a
    ping behind an executing batch, so a late probe there proves
    business, not death (a crash still surfaces immediately as EOF on
    the connection). *)
val default_config : unit -> config

(** Live counters, safe to read from another domain while the router
    runs. *)
type stats = {
  served : int Atomic.t;  (** responses delivered to clients *)
  failovers : int Atomic.t;  (** in-flight requests re-routed *)
  respawns : int Atomic.t;  (** dead children restarted *)
  shed : int Atomic.t;  (** Overloaded / Unavailable / deadline answers *)
  healthy : int Atomic.t;  (** routable backends, updated each sweep *)
}

val make_stats : unit -> stats

(** The request's routing key: the elaborated graph's digest when the
    spec elaborates router-side, a path/name-derived key otherwise.
    Exposed for tests. *)
val affinity_key : Hls_api.Request.t -> string

(** Run the router until [stop] flips (or SIGTERM/SIGINT when
    [handle_signals]) on {!Hls_server.Loop}, the daemon's readiness
    loop.  Blocks; raises [Invalid_argument] when the
    config has no endpoint or no backends.  [log] receives one line per
    fleet event (spawn, ejection, respawn). *)
val serve :
  ?stop:bool Atomic.t ->
  ?handle_signals:bool ->
  ?stats:stats ->
  ?log:(string -> unit) ->
  config ->
  unit
