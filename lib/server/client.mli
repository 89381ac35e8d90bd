(** Blocking NDJSON client for the request daemon — what the CLI's
    [--connect] flag speaks.  Accepts a Unix-socket path or a TCP
    "host:port" address. *)

type address = Unix_socket of string | Tcp of string * int

(** ["host:port"] (no slash, valid port) parses as TCP; everything else
    is a Unix-socket path. *)
val parse_address : string -> address

(** Dotted-quad parse with a gethostbyname fallback. *)
val resolve_host : string -> (Unix.inet_addr, string) result

(** A bare connected, blocking file descriptor (TCP_NODELAY set on TCP)
    — the router multiplexes these itself. *)
val connect_fd : address -> (Unix.file_descr, string) result

type t

(** [connect spec] parses [spec] with {!parse_address} and connects. *)
val connect : string -> (t, string) result

val close : t -> unit

val send :
  t -> ?id:string -> ?deadline_ms:float -> Hls_api.Request.t ->
  (unit, string) result

val receive : t -> (Hls_api.Response.t, string) result

(** Ship an already-encoded request line verbatim, return the raw
    response line (the [hlsopt call] passthrough). *)
val raw_roundtrip : t -> string -> (string, string) result

(** Ship every line before reading anything, then read one raw response
    per line sent ([hlsopt call --burst]).  Responses may reorder across
    requests; match on id. *)
val raw_burst : t -> string list -> (string list, string) result

(** [send] then [receive]: fine as long as this connection has at most
    one request in flight. *)
val roundtrip :
  t -> ?id:string -> ?deadline_ms:float -> Hls_api.Request.t ->
  (Hls_api.Response.t, string) result

(** Connect, round-trip one request, disconnect.  [timeout_s] bounds
    every blocking read and write on the socket (SO_RCVTIMEO/SO_SNDTIMEO);
    one that expires is a transport error. *)
val call :
  socket:string -> ?timeout_s:float -> ?id:string -> ?deadline_ms:float ->
  Hls_api.Request.t -> (Hls_api.Response.t, string) result

(** One raw request line under an {!Hls_pool.Retry_policy}: retryable
    answers ([Overloaded], [Unavailable], retryable flow failures) and
    transport failures are retried with the policy's backoff,
    reconnecting each attempt (the daemon may have restarted between
    them).  Transport errors and response lines that do not parse are
    judged as [Internal (Remote _)].  Returns the last raw response line
    (or transport error) and how many attempts were made; the default
    policy ({!Hls_pool.Retry_policy.none}) makes exactly one. *)
val raw_call_retry :
  socket:string -> ?retry:Hls_pool.Retry_policy.t -> string ->
  (string, string) result * int

(** {!raw_call_retry} on one encoded request, with the final line
    decoded. *)
val call_retry :
  socket:string -> ?id:string -> ?deadline_ms:float ->
  ?retry:Hls_pool.Retry_policy.t -> Hls_api.Request.t ->
  (Hls_api.Response.t, string) result * int
