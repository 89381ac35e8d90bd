(* Blocking client for the request daemon: connect to a Unix-domain
   socket or a TCP address, one JSON envelope per line each way.  This
   is what the CLI's --connect flag and `hlsopt call` speak; tests drive
   it concurrently from several domains, and the router uses the raw fd
   layer to multiplex backends. *)

type address = Unix_socket of string | Tcp of string * int

(* "host:port" is TCP; anything else — in particular anything containing
   a '/' — is a socket path.  A bare name with a trailing ":digits" and
   no slash can only be TCP, which is what users mean by
   "localhost:4000". *)
let parse_address s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Tcp (host, p)
      | _ -> Unix_socket s)
  | _ -> Unix_socket s

let address_to_string = function
  | Unix_socket p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | a -> Ok a
  | exception Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] -> Error (Printf.sprintf "cannot resolve host %S" host)
      | addrs -> Ok addrs.(0)
      | exception Not_found ->
          Error (Printf.sprintf "cannot resolve host %S" host))

(* A peer may vanish between our connect and write (a crashed daemon, a
   fault-injected drop): without this, the default SIGPIPE disposition
   kills the whole client process instead of surfacing EPIPE as the
   transport error the retry layer handles. *)
let ignore_sigpipe =
  lazy
    (match Sys.os_type with
    | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    | _ -> ())

(* Bare connected fd — the router multiplexes these itself. *)
let connect_fd addr =
  Lazy.force ignore_sigpipe;
  match addr with
  | Unix_socket path -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot connect to %s: %s" path
               (Unix.error_message e)))
  | Tcp (host, port) -> (
      match resolve_host host with
      | Error _ as e -> e
      | Ok ip -> (
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          match
            Unix.connect fd (Unix.ADDR_INET (ip, port));
            (* Request lines are small and latency-bound: never Nagle. *)
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ()
          with
          | () -> Ok fd
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Printf.sprintf "cannot connect to %s:%d: %s" host port
                   (Unix.error_message e))))

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect spec =
  match connect_fd (parse_address spec) with
  | Error _ as e -> e
  | Ok fd ->
      Ok
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
        }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t ?id ?deadline_ms req =
  match
    output_string t.oc
      (Hls_dse.Dse_json.to_string
         (Hls_api.Request.to_json ?id ?deadline_ms req));
    output_char t.oc '\n';
    flush t.oc
  with
  | () -> Ok ()
  | exception Sys_error m -> Error ("send failed: " ^ m)
  | exception Sys_blocked_io -> Error "send timed out"

(* One response line; [Sys_blocked_io] is an expired [timeout_s]. *)
let read_line t =
  match input_line t.ic with
  | line -> Ok line
  | exception End_of_file -> Error "server closed the connection"
  | exception Sys_error m -> Error ("receive failed: " ^ m)
  | exception Sys_blocked_io -> Error "receive timed out"

let receive t = Result.bind (read_line t) Hls_api.Response.of_string

(* Raw passthrough for `hlsopt call`: ship an already-encoded line,
   return the raw response line. *)
let raw_roundtrip t line =
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc
  with
  | exception Sys_error m -> Error ("send failed: " ^ m)
  | exception Sys_blocked_io -> Error "send timed out"
  | () -> read_line t

(* Pipelined passthrough: write every line, flush once, then read one
   response per line sent.  Responses may arrive in any order (shed
   Overloaded answers overtake admitted work). *)
let raw_burst t lines =
  match
    List.iter
      (fun line ->
        output_string t.oc line;
        output_char t.oc '\n')
      lines;
    flush t.oc
  with
  | exception Sys_error m -> Error ("send failed: " ^ m)
  | exception Sys_blocked_io -> Error "send timed out"
  | () ->
      let rec read acc = function
        | 0 -> Ok (List.rev acc)
        | n -> (
            match read_line t with
            | Ok resp -> read (resp :: acc) (n - 1)
            | Error _ as e -> e)
      in
      read [] (List.length lines)

let roundtrip t ?id ?deadline_ms req =
  match send t ?id ?deadline_ms req with
  | Error _ as e -> e
  | Ok () -> receive t

(* One-shot convenience: connect, ask, disconnect.  [timeout_s] bounds
   every blocking read and write on the socket (SO_RCVTIMEO/SO_SNDTIMEO):
   a peer that accepts but never answers, or never reads, surfaces as a
   transport error instead of a hang. *)
let call ~socket ?timeout_s ?id ?deadline_ms req =
  match connect socket with
  | Error _ as e -> e
  | Ok t ->
      Option.iter
        (fun s ->
          try
            Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO s;
            Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO s
          with Unix.Unix_error _ | Invalid_argument _ -> ())
        timeout_s;
      Fun.protect
        ~finally:(fun () -> close t)
        (fun () -> roundtrip t ?id ?deadline_ms req)

(* ------------------------------------------------------------------ *)
(* Retrying calls.                                                     *)

module Resp = Hls_api.Response
module Retry_policy = Hls_pool.Retry_policy

(* One raw request line under a Retry_policy: reconnect each attempt
   (the daemon may have restarted), back off between rounds, give up
   with the last answer.  Retryable answers (Overloaded shed,
   Unavailable, retryable flow failures) are judged by their class;
   transport errors and unparseable lines (a half-written response) are
   folded into the taxonomy as Internal(Remote) so the policy judges
   every outcome the same way. *)
let raw_call_retry ~socket ?(retry = Retry_policy.none) line =
  let remote m = Hls_util.Failure.Internal (Hls_util.Failure.Remote m) in
  let rec attempt n =
    if n > 1 then
      Unix.sleepf (Retry_policy.delay_s retry ~attempt:(n - 1) ~job:0);
    let outcome =
      match connect socket with
      | Error _ as e -> e
      | Ok t ->
          Fun.protect
            ~finally:(fun () -> close t)
            (fun () -> raw_roundtrip t line)
    in
    let retry_failure =
      match Result.bind outcome Resp.of_string with
      | Ok { Resp.result = Error e; _ } when Resp.retryable e -> (
          match e with
          | Resp.Failed f -> Some f
          | e -> Some (remote (Resp.error_message e)))
      | Ok _ -> None
      | Error m -> Some (remote m)
    in
    match retry_failure with
    | Some f when Retry_policy.should_retry retry ~attempt:n f ->
        attempt (n + 1)
    | _ -> (outcome, n)
  in
  attempt 1

let call_retry ~socket ?id ?deadline_ms ?retry req =
  let line =
    Hls_dse.Dse_json.to_string (Hls_api.Request.to_json ?id ?deadline_ms req)
  in
  let outcome, attempts = raw_call_retry ~socket ?retry line in
  (Result.bind outcome Resp.of_string, attempts)
