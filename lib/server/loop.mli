(** The readiness loop under the daemon ({!Server}) and the router
    ([Hls_router.Router]): listeners, client connections, line framing,
    response writes, accept, read timeouts, dead-connection collection,
    signal setup and teardown, around one [Unix.select].

    The loop has no fixed tick.  Each round it asks the caller's
    [on_turn] for the earliest absolute time the caller waits on, adds
    its own deadlines (the next stalled-line cut-off while serving, the
    drain grace while draining), and sleeps in select until then or
    until an fd is readable.  With no deadline at all it sleeps at most
    {!idle_bound}, so a [stop] flag set from another domain is still
    seen. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read but not yet framed into lines *)
  mutable scanned : int;
      (** leading bytes of [buf] that {!frame} has searched and found
          no newline in *)
  mutable alive : bool;
  mutable last_read : float;  (** when the last byte arrived *)
  name : string;  (** telemetry prefix of the owner ("server", "router") *)
}

(** A fresh live connection on [fd], counted under [name]. *)
val conn : name:string -> Unix.file_descr -> conn

(** Write [s] and a newline, blocking.  A peer that is gone (EPIPE,
    ECONNRESET) or stopped reading (SO_SNDTIMEO expiry, counted as
    [<name>.write_timeout]) marks the connection dead; writes to a dead
    connection do nothing.  [Hls_util.Faults.on_net_write] may truncate
    the line and shut the connection. *)
val write_line : conn -> string -> unit

(** [write_line] of an encoded response. *)
val respond : conn -> Hls_api.Response.t -> unit

(** One read of up to 64 KiB, through the calling domain's reused
    buffer, appended to [conn.buf]; EOF or ECONNRESET marks it dead. *)
val read : conn -> unit

(** [frame ~max_line conn] pops every complete line out of [conn.buf],
    oldest first, leaving the unterminated tail buffered.  Only bytes
    after [conn.scanned] are searched.  The flag is
    true when that tail alone is longer than [max_line]: complete lines
    never count against the limit, however many arrive in one read. *)
val frame : max_line:int -> conn -> string list * bool

(** The longest select sleep, seconds, when nobody waits on a deadline. *)
val idle_bound : float

type config = {
  name : string;  (** telemetry prefix and error-message owner *)
  socket : string option;  (** Unix socket path; removed on teardown *)
  listen : (string * int) option;  (** TCP (host, port) *)
  max_line : int;  (** longest unterminated client line, bytes *)
  max_conns : int option;  (** live clients before new ones are refused *)
  io_timeout_s : float option;
      (** SO_SNDTIMEO on accepted clients and the cut-off for a client
          stalled mid-line *)
  grace_s : float;  (** how long the drain may wait on [busy] *)
}

type hooks = {
  on_line : conn -> string -> unit;  (** one complete client line *)
  on_turn : float -> float;
      (** called with the time at the start of every round, before
          select: run due timers and queued work, and return the
          earliest absolute time to wake for ([infinity] for none, a
          past time to poll) *)
  extra : unit -> (Unix.file_descr * (unit -> unit)) list;
      (** more fds to wait on (the router's backends) and what to do
          when each is readable; these are also watched while draining *)
  owes : conn -> bool;
      (** a dead client that still owes answers is kept open until
          this turns false *)
  busy : unit -> bool;  (** while draining: work still outstanding *)
  on_drain : float -> unit;
      (** once, when [stop] is seen, with the drain's absolute deadline;
          from then on no client is accepted or read *)
  on_drained : unit -> unit;
      (** once, when [busy] turns false or the grace runs out, before
          the connections close *)
}

type t

(** Bind the listeners, ignore SIGPIPE and, with [handle_signals], make
    SIGTERM and SIGINT set [stop].  Raises [Invalid_argument] when the
    config names no endpoint or the TCP host cannot be resolved. *)
val create : ?handle_signals:bool -> stop:bool Atomic.t -> config -> t

(** Serve until [stop] becomes true, then drain, then close every
    connection and listener and remove the socket file. *)
val run : t -> hooks -> unit
