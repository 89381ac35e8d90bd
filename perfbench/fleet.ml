(* The serving fleet the serve workload talks to: one `hlsopt serve
   --jobs 1` daemon fronted by one `hlsopt route`, both child processes
   of the built binary, on Unix sockets under the run's output
   directory. *)

module R = Hls_api.Request
module Client = Hls_server.Client

type t = {
  daemon : int;
  router : int;
  daemon_sock : string;
  router_sock : string;
  log : string;  (** both children's output; kept only when start fails *)
}

let spawn ~hlsopt ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process hlsopt (Array.of_list (hlsopt :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let rec ping sock ~deadline =
  let ok =
    match Client.connect sock with
    | Error _ -> false
    | Ok c ->
        let r = Client.roundtrip c R.Ping in
        Client.close c;
        (match r with
        | Ok { Hls_api.Response.result = Ok (Hls_api.Response.Pong _); _ } -> true
        | _ -> false)
  in
  if ok then ()
  else if Unix.gettimeofday () > deadline then
    failwith ("no ping answer from " ^ sock)
  else begin
    (* short: the poll interval shows in setup_s, which is ~20 ms here *)
    Unix.sleepf 0.001;
    ping sock ~deadline
  end

(* Stop a child: SIGTERM, then SIGKILL if it has not exited within
   [grace] seconds; always reaped. *)
let stop_pid ?(grace = 5.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Start the daemon, then the router in front of it; return once both
   answer ping.  [tag] keeps concurrent fleets of one run apart. *)
let start ~hlsopt ~dir ~tag =
  let base = Filename.concat dir (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  let daemon_sock = base ^ "-d.sock" and router_sock = base ^ "-r.sock" in
  let log = base ^ ".log" in
  remove daemon_sock;
  remove router_sock;
  let deadline = Unix.gettimeofday () +. 30. in
  let daemon = spawn ~hlsopt ~log [ "serve"; "--socket"; daemon_sock; "--jobs"; "1" ] in
  (match ping daemon_sock ~deadline with
  | () -> ()
  | exception e -> stop_pid daemon; raise e);
  let router =
    spawn ~hlsopt ~log [ "route"; "--backends"; daemon_sock; "--socket"; router_sock ]
  in
  (match ping router_sock ~deadline with
  | () -> ()
  | exception e -> stop_pid router; stop_pid daemon; raise e);
  { daemon; router; daemon_sock; router_sock; log }

let stop t =
  stop_pid t.router;
  stop_pid t.daemon;
  remove t.router_sock;
  remove t.daemon_sock;
  remove t.log
