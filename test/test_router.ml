(* The sharded serving tier: consistent-hash stability, the health
   state machine (driven sleep-free through ~now), client-side retry, a
   multi-latency explore routed whole to one backend, and a chaos case —
   real backend daemons, one SIGKILLed mid-burst, with zero lost
   requests and responses byte-identical to direct calls. *)

module J = Hls_dse.Dse_json
module Req = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Client = Hls_server.Client
module Ring = Hls_router.Ring
module Health = Hls_router.Health
module Router = Hls_router.Router
module Space = Hls_dse.Space
module Retry = Hls_pool.Retry_policy

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Consistent hashing.                                                 *)

let test_ring_stability () =
  let names n = List.init n (fun i -> Printf.sprintf "backend-%d" i) in
  let keys = List.init 500 (fun i -> Printf.sprintf "digest-%d" i) in
  let owner ring k =
    match Ring.lookup ring k with
    | Some b -> b
    | None -> Alcotest.fail "non-empty ring must route every key"
  in
  let r5 = Ring.make (names 5) in
  (* deterministic *)
  List.iter (fun k -> check "stable lookup" (owner r5 k) (owner r5 k)) keys;
  (* removing one backend moves only the keys it owned *)
  let r4 = Ring.make (names 4) in
  let moved =
    List.filter
      (fun k -> owner r5 k <> "backend-4" && owner r5 k <> owner r4 k)
      keys
  in
  check_int "removal moves no unrelated keys" 0 (List.length moved);
  (* adding one backend steals a bounded share: roughly 1/6 of keys,
     certainly not a wholesale reshuffle *)
  let r6 = Ring.make (names 6) in
  let stolen =
    List.length (List.filter (fun k -> owner r5 k <> owner r6 k) keys)
  in
  check_bool
    (Printf.sprintf "bounded movement on add (%d/500 moved)" stolen)
    true
    (stolen > 0 && stolen < 250);
  (* exclusion fails over deterministically and exhausts to None *)
  let k = "digest-42" in
  let first = owner r5 k in
  (match Ring.lookup ~exclude:[ first ] r5 k with
  | Some b -> check_bool "failover picks a different backend" true (b <> first)
  | None -> Alcotest.fail "four backends remain");
  check_bool "all-excluded ring routes nowhere" true
    (Ring.lookup ~exclude:(names 5) r5 k = None)

let test_affinity_key () =
  (* the same design routes identically however it is shipped: inline
     source and the builtin it mirrors elaborate to the same digest *)
  let k1 = Router.affinity_key (Req.Parse { spec = Req.Builtin "chain3" }) in
  let k2 = Router.affinity_key (Req.Parse { spec = Req.Builtin "chain3" }) in
  check "affinity key is deterministic" k1 k2;
  let k3 = Router.affinity_key (Req.Parse { spec = Req.Builtin "fir2" }) in
  check_bool "different designs get different keys" true (k1 <> k3);
  check "ping has a fixed key" "ping" (Router.affinity_key Req.Ping)

(* ------------------------------------------------------------------ *)
(* Health state machine, no sleeping: time is an argument.             *)

let test_health_machine () =
  let h = Health.make ~eject_after:3 ~cooldown_s:2.0 () in
  check_bool "starts routable" true (Health.is_routable h);
  Health.record_failure ~now:0. h;
  Health.record_failure ~now:0.1 h;
  check_bool "below threshold stays routable" true (Health.is_routable h);
  Health.record_success h;
  Health.record_failure ~now:0.2 h;
  Health.record_failure ~now:0.3 h;
  check_bool "success resets the consecutive count" true
    (Health.is_routable h);
  Health.record_failure ~now:0.4 h;
  check_bool "third consecutive failure ejects" false (Health.is_routable h);
  check_bool "no trial before the cooldown" false (Health.trial_due ~now:1.0 h);
  check_bool "trial granted after the cooldown" true
    (Health.trial_due ~now:2.5 h);
  check_bool "half-open does not take traffic" false (Health.is_routable h);
  check_bool "the trial is granted once" false (Health.trial_due ~now:2.6 h);
  (* failed trial: re-ejected, cooldown restarts from the failure *)
  Health.record_failure ~now:3.0 h;
  check_bool "failed trial re-ejects" false (Health.is_routable h);
  check_bool "cooldown restarts" false (Health.trial_due ~now:4.0 h);
  check_bool "second trial after the new cooldown" true
    (Health.trial_due ~now:5.1 h);
  Health.record_success h;
  check_bool "successful trial readmits" true (Health.is_routable h)

(* ------------------------------------------------------------------ *)
(* Deadlines through Exec: expired work is shed as a retryable,
   typed timeout before any staging happens.                           *)

let test_deadline_shed () =
  let exec = Exec.create () in
  Fun.protect
    ~finally:(fun () -> Exec.close exec)
    (fun () ->
      let past = (Unix.gettimeofday () *. 1e3) -. 50. in
      (match
         Exec.run ~deadline:past exec (Req.Parse { spec = Req.Builtin "chain3" })
       with
      | Error (Resp.Failed (Hls_util.Failure.Timeout _) as e) ->
          check_bool "deadline shed is retryable" true (Resp.retryable e)
      | _ -> Alcotest.fail "expired deadline must shed as a timeout");
      let future = (Unix.gettimeofday () *. 1e3) +. 60_000. in
      match
        Exec.run ~deadline:future exec (Req.Parse { spec = Req.Builtin "chain3" })
      with
      | Ok (Resp.Parsed _) -> ()
      | _ -> Alcotest.fail "a live deadline must not shed")

let test_deadline_envelope () =
  let line =
    J.to_string
      (Req.to_json ~id:"d" ~deadline_ms:123.5
         (Req.Parse { spec = Req.Builtin "chain3" }))
  in
  match Req.envelope_of_string line with
  | Ok env ->
      check "envelope id" "d" (Option.value env.Req.env_id ~default:"<none>");
      Alcotest.(check (option (float 0.001)))
        "deadline decodes" (Some 123.5) env.Req.env_deadline_ms
  | Error _ -> Alcotest.fail "deadline envelope must decode"

(* ------------------------------------------------------------------ *)
(* Client-side retry: the give-up path against a dead socket counts
   its attempts and still reports the transport failure.               *)

let test_client_retry_gives_up () =
  let dead =
    Filename.concat (Filename.get_temp_dir_name ()) "hls-router-no-daemon.sock"
  in
  (try Sys.remove dead with Sys_error _ -> ());
  let retry = Retry.make ~attempts:3 ~backoff_s:0.005 () in
  let outcome, attempts = Client.call_retry ~socket:dead ~retry Req.Ping in
  check_int "every attempt was used" 3 attempts;
  match outcome with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a dead socket cannot answer"

(* ------------------------------------------------------------------ *)
(* End-to-end chaos: real backend daemons under an in-process router;
   one backend SIGKILLed mid-burst must lose nothing, and routed
   responses must be byte-identical to direct calls.                   *)

let hlsopt = "../bin/hlsopt.exe"

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hls-router-%d-%s" (Unix.getpid ()) name)

let spawn_backend sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let argv = [| hlsopt; "serve"; "--socket"; sock |] in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process hlsopt argv devnull devnull devnull)

let wait_ready sock =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match Client.call ~socket:sock Req.Ping with
    | Ok { Resp.result = Ok _; _ } -> ()
    | _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "backend on %s never came up" sock
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let with_fleet ?(probe_timeout_s = 2.0) ?(eject_after = 3) n f =
  let socks = List.init n (fun i -> tmp (Printf.sprintf "backend-%d.sock" i)) in
  let pids = List.map spawn_backend socks in
  let kill pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      List.iter wait_ready socks;
      let router_sock = tmp "router.sock" in
      (try Sys.remove router_sock with Sys_error _ -> ());
      let stop = Atomic.make false in
      let stats = Router.make_stats () in
      let cfg =
        {
          (Router.default_config ()) with
          Router.socket = Some router_sock;
          backends = socks;
          probe_interval_s = 0.1;
          probe_timeout_s;
          eject_after;
          cooldown_s = 0.5;
          hold_s = 2.0;
          retry = Retry.make ~attempts:4 ~backoff_s:0.01 ();
        }
      in
      let srv = Domain.spawn (fun () -> Router.serve ~stop ~stats cfg) in
      let rec wait_up k =
        if k = 0 then Alcotest.fail "router socket never appeared";
        if not (Sys.file_exists router_sock) then begin
          Unix.sleepf 0.02;
          wait_up (k - 1)
        end
      in
      wait_up 250;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join srv)
        (fun () -> f ~router_sock ~socks ~pids ~stats))

let request_line i =
  let builtin = if i mod 2 = 0 then "chain3" else "fir2" in
  J.to_string
    (Req.to_json
       ~id:(Printf.sprintf "chaos-%d" i)
       (Req.Parse { spec = Req.Builtin builtin }))

let test_chaos_kill_one_backend () =
  with_fleet 3 @@ fun ~router_sock ~socks ~pids ~stats ->
  let n = 40 in
  let lines = List.init n request_line in
  (* direct answers first, for byte comparison *)
  let direct =
    match Client.connect (List.hd socks) with
    | Error m -> Alcotest.failf "direct connect: %s" m
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.raw_burst c lines with
            | Ok rs -> rs
            | Error m -> Alcotest.failf "direct burst: %s" m)
  in
  (* now through the router, killing one backend mid-burst *)
  match Client.connect router_sock with
  | Error m -> Alcotest.failf "router connect: %s" m
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let killer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            let victim = List.hd pids in
            (try Unix.kill victim Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] victim) with Unix.Unix_error _ -> ())
      in
      let routed =
        match Client.raw_burst c lines with
        | Ok rs -> rs
        | Error m -> Alcotest.failf "routed burst: %s" m
      in
      Domain.join killer;
      check_int "zero lost requests" n (List.length routed);
      (* the router answers in completion order; compare the id-sorted
         response sets byte for byte *)
      List.iteri
        (fun i (d, r) ->
          Alcotest.(check string)
            (Printf.sprintf "response %d byte-identical" i)
            d r)
        (List.combine
           (List.sort compare direct)
           (List.sort compare routed));
      check_bool "the router noticed the kill" true
        (Atomic.get stats.Router.failovers >= 0)

(* A backend mid-explore blocks its coordinator for far longer than the
   probe timeout.  That must read as "busy", not "dead": with the
   harshest possible health settings (one missed probe ejects), the
   explore must still come back Ok through the router, with no spurious
   failover, no duplicate execution, no Unavailable. *)
let test_busy_backend_not_ejected () =
  with_fleet ~probe_timeout_s:0.15 ~eject_after:1 1
  @@ fun ~router_sock ~socks:_ ~pids:_ ~stats ->
  match
    Client.call ~socket:router_sock ~id:"busy"
      (Req.Explore
         {
           spec = Req.Builtin "elliptic";
           params =
             { Req.default_explore_params with latencies = [ 17; 19; 21; 23 ] };
         })
  with
  | Error m -> Alcotest.failf "transport: %s" m
  | Ok { Resp.result = Error e; _ } ->
      Alcotest.failf "busy backend was treated as dead: %s"
        (Resp.error_message e)
  | Ok { Resp.result = Ok (Resp.Explored t); _ } ->
      check_bool "the sweep really ran" true
        (t.Hls_dse.Explore.points <> []);
      check_int "no spurious failover" 0 (Atomic.get stats.Router.failovers)
  | Ok _ -> Alcotest.fail "explore answered with a non-explore payload"

let point_fingerprint (p : Hls_dse.Explore.point) =
  Space.job_key p.Hls_dse.Explore.job
  ^ "→"
  ^ J.to_string (Hls_dse.Cache.metrics_to_json p.Hls_dse.Explore.metrics)

let sweep_explore ~socket =
  match
    Client.call ~socket
      (Req.Explore
         {
           spec = Req.Builtin "elliptic";
           params =
             { Req.default_explore_params with latencies = [ 17; 19; 21; 23 ] };
         })
  with
  | Ok { Resp.result = Ok (Resp.Explored t); _ } -> t
  | Ok { Resp.result = Error e; _ } ->
      Alcotest.failf "explore on %s failed: %s" socket (Resp.error_message e)
  | Ok _ -> Alcotest.failf "explore on %s answered a non-explore payload" socket
  | Error m -> Alcotest.failf "transport to %s: %s" socket m

(* A multi-latency explore through a two-backend router runs whole on
   the backend that owns its digest.  Asked again directly, that
   backend answers every point from its sweep cache and the other
   backend computes every point afresh; the routed points and frontier
   are the single-process sweep's.  The per-point [from_cache] flag is
   read, not the sweep's cache counters: those count the daemon's
   shared cache across requests. *)
let test_explore_routes_whole () =
  with_fleet 2 @@ fun ~router_sock ~socks ~pids:_ ~stats:_ ->
  let routed = sweep_explore ~socket:router_sock in
  let direct = List.map (fun socket -> sweep_explore ~socket) socks in
  let all_cached cached (t : Hls_dse.Explore.t) =
    t.Hls_dse.Explore.points <> []
    && List.for_all
         (fun p -> p.Hls_dse.Explore.from_cache = cached)
         t.Hls_dse.Explore.points
  in
  check_int "exactly one backend ran the sweep" 1
    (List.length (List.filter (all_cached true) direct));
  check_int "the other backend never saw it" 1
    (List.length (List.filter (all_cached false) direct));
  let prints f (t : Hls_dse.Explore.t) = List.map point_fingerprint (f t) in
  List.iter
    (fun d ->
      Alcotest.(check (list string))
        "points (jobs and metrics)"
        (prints (fun t -> t.Hls_dse.Explore.points) d)
        (prints (fun t -> t.Hls_dse.Explore.points) routed);
      Alcotest.(check (list string))
        "frontier"
        (prints (fun t -> t.Hls_dse.Explore.frontier) d)
        (prints (fun t -> t.Hls_dse.Explore.frontier) routed))
    direct

let test_router_unavailable_when_fleet_dead () =
  (* every backend address points at nothing: requests are held for
     hold_s, then shed as the typed retryable Unavailable (exit 8) *)
  let router_sock = tmp "router-dead.sock" in
  (try Sys.remove router_sock with Sys_error _ -> ());
  let stop = Atomic.make false in
  let cfg =
    {
      (Router.default_config ()) with
      Router.socket = Some router_sock;
      backends = [ tmp "gone-0.sock"; tmp "gone-1.sock" ];
      probe_interval_s = 0.1;
      hold_s = 0.3;
      retry = Retry.make ~attempts:2 ~backoff_s:0.01 ();
    }
  in
  let srv = Domain.spawn (fun () -> Router.serve ~stop cfg) in
  let rec wait_up k =
    if k = 0 then Alcotest.fail "router socket never appeared";
    if not (Sys.file_exists router_sock) then begin
      Unix.sleepf 0.02;
      wait_up (k - 1)
    end
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    (fun () ->
      match Client.call ~socket:router_sock (Req.Parse { spec = Req.Builtin "chain3" }) with
      | Ok { Resp.result = Error (Resp.Unavailable _ as e); _ } ->
          check_int "unavailable exits 8" 8 (Resp.exit_code e);
          check_bool "unavailable is retryable" true (Resp.retryable e)
      | Ok { Resp.result = Error e; _ } ->
          Alcotest.failf "expected unavailable, got %s" (Resp.error_message e)
      | Ok { Resp.result = Ok _; _ } ->
          Alcotest.fail "a dead fleet cannot answer"
      | Error m -> Alcotest.failf "transport: %s" m)

(* ------------------------------------------------------------------ *)
(* Transport rules both tiers share through Hls_server.Loop.           *)

(* A router whose backends point at nothing still answers ping and
   stats itself, which is all a transport test needs. *)
let with_lone_router name tweak f =
  let router_sock = tmp name in
  (try Sys.remove router_sock with Sys_error _ -> ());
  let stop = Atomic.make false in
  let cfg =
    tweak
      {
        (Router.default_config ()) with
        Router.socket = Some router_sock;
        backends = [ tmp (name ^ "-gone.sock") ];
      }
  in
  let srv = Domain.spawn (fun () -> Router.serve ~stop cfg) in
  let rec wait_up k =
    if k = 0 then Alcotest.fail "router socket never appeared";
    if not (Sys.file_exists router_sock) then begin
      Unix.sleepf 0.02;
      wait_up (k - 1)
    end
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    (fun () -> f router_sock)

let with_daemon name tweak f =
  let sock = tmp name in
  (try Sys.remove sock with Sys_error _ -> ());
  let exec = Exec.create () in
  let stop = Atomic.make false in
  let cfg = tweak (Hls_server.Server.default_config ~socket:sock) in
  let srv = Domain.spawn (fun () -> Hls_server.Server.serve ~stop cfg exec) in
  let rec wait_up k =
    if k = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.02;
      wait_up (k - 1)
    end
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv;
      Exec.close exec)
    (fun () -> f sock)

(* Send [payload] in one write on a fresh connection, then read until
   [lines] complete lines have arrived, the peer closes, or [timeout_s]
   passes.  Returns the complete lines and whether the peer closed. *)
let exchange ?(timeout_s = 2.) sock payload ~lines =
  match Client.connect_fd (Client.parse_address sock) with
  | Error m -> Alcotest.failf "connect %s: %s" sock m
  | Ok fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      ignore (Unix.write_substring fd payload 0 (String.length payload));
      let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
      let complete () =
        match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
        | _partial :: done_ -> List.rev done_
        | [] -> []
      in
      let rec go () =
        if List.length (complete ()) >= lines then false
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              false
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
      in
      let closed = go () in
      (complete (), closed)

(* A ping line padded through its id to exactly [len] bytes. *)
let padded_ping k len =
  let line pad =
    J.to_string (Req.to_json ~id:(Printf.sprintf "p%d-%s" k pad) Req.Ping)
  in
  line (String.make (len - String.length (line "")) 'x')

(* Two complete 212-byte lines in one write are within a 256-byte line
   limit: only an unterminated fragment may count against it.  Both
   tiers must answer both pings. *)
let test_framing_counts_only_the_fragment () =
  let payload = padded_ping 1 212 ^ "\n" ^ padded_ping 2 212 ^ "\n" in
  check_int "each line is 212 bytes" 212 (String.length (padded_ping 1 212));
  let pongs tier sock =
    let lines, _ = exchange sock payload ~lines:2 in
    let ok =
      List.filter
        (fun l ->
          match Resp.of_string l with
          | Ok { Resp.result = Ok (Resp.Pong _); _ } -> true
          | _ -> false)
        lines
    in
    check_int
      (Printf.sprintf "%s answers both pings (got: %s)" tier
         (String.concat " | " lines))
      2 (List.length ok)
  in
  with_lone_router "framing-router.sock"
    (fun cfg -> { cfg with Router.max_line = 256 })
    (pongs "router");
  with_daemon "framing-daemon.sock"
    (fun cfg -> { cfg with Hls_server.Server.max_line = 256 })
    (pongs "daemon")

(* A router client that sends half a line and stops is cut off after
   the io timeout, as the daemon cuts its own, instead of holding its
   buffer forever. *)
let test_router_cuts_stalled_client () =
  with_lone_router "stall-router.sock"
    (fun cfg -> { cfg with Router.io_timeout_s = Some 0.2 })
  @@ fun sock ->
  let t0 = Unix.gettimeofday () in
  let lines, closed = exchange sock {|{"v":1,"id":"half|} ~lines:2 in
  let dt = Unix.gettimeofday () -. t0 in
  (match List.map Resp.of_string lines with
  | [ Ok { Resp.result = Error (Resp.Unavailable m); _ } ] ->
      check_bool ("the answer names the read timeout: " ^ m) true
        (String.starts_with ~prefix:"read timeout" m)
  | _ ->
      Alcotest.failf "expected one unavailable answer, got [%s]"
        (String.concat " | " lines));
  check_bool "the router closed the connection" true closed;
  check_bool (Printf.sprintf "within 2 s (%.2f s)" dt) true (dt < 2.)

(* A response cut off mid-line is a transport failure: the one raw
   retry loop behind [hlsopt call --retries] and [Client.call_retry]
   reconnects and returns the whole answer, not the half line. *)
let test_client_retry_truncated_line () =
  with_daemon "truncate-daemon.sock" Fun.id @@ fun sock ->
  let module F = Hls_util.Faults in
  Fun.protect ~finally:F.disarm @@ fun () ->
  F.arm { F.inert with F.truncate_write = Some 1 };
  let line = J.to_string (Req.to_json ~id:"t" Req.Ping) in
  let retry = Retry.make ~attempts:3 ~backoff_s:0.005 () in
  match Client.raw_call_retry ~socket:sock ~retry line with
  | Ok resp, attempts -> (
      check_int "the half line was retried once" 2 attempts;
      match Resp.of_string resp with
      | Ok { Resp.result = Ok (Resp.Pong _); _ } -> ()
      | _ -> Alcotest.failf "expected a whole pong, got %s" resp)
  | Error m, _ -> Alcotest.failf "transport: %s" m

(* A peer that accepts the connection and never answers: the bounded
   ping the router sends its spawned children gives up on its socket
   timeout instead of waiting on the reply.  The peer hangs up after
   5 s at the latest, so an unbounded ping fails the time check rather
   than hanging the suite. *)
let test_bounded_ping_gives_up () =
  let sock = tmp "silent.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 4;
  let finished = Atomic.make false in
  let peer =
    Domain.spawn (fun () ->
        match Unix.select [ lfd ] [] [] 5. with
        | [], _, _ -> ()
        | _ ->
            let fd, _ = Unix.accept lfd in
            let until = Unix.gettimeofday () +. 5. in
            while (not (Atomic.get finished)) && Unix.gettimeofday () < until do
              Unix.sleepf 0.02
            done;
            Unix.close fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join peer;
      Unix.close lfd;
      Sys.remove sock)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let outcome = Client.call ~socket:sock ~timeout_s:0.5 Req.Ping in
  let dt = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a silent peer cannot answer");
  check_bool (Printf.sprintf "gave up within 2 s (%.2f s)" dt) true (dt < 2.)

(* A pipelined burst past the router's in-flight cap, over in-process
   daemons: every line is answered, the overflow is shed as overloaded
   and the rest is served. *)
let test_burst_sheds_past_inflight_cap () =
  let rec with_daemons k f =
    if k = 0 then f []
    else
      with_daemon (Printf.sprintf "burst-daemon-%d.sock" k) Fun.id
        (fun sock -> with_daemons (k - 1) (fun socks -> f (sock :: socks)))
  in
  with_daemons 3 @@ fun socks ->
  with_lone_router "burst-router.sock"
    (fun cfg -> { cfg with Router.backends = socks; max_inflight = 8 })
  @@ fun router_sock ->
  let n = 64 in
  let ids = List.init n (Printf.sprintf "burst-%d") in
  let lines =
    List.map
      (fun id ->
        J.to_string
          (Req.to_json ~id (Req.Parse { spec = Req.Builtin "chain3" })))
      ids
  in
  let resps =
    match Client.connect router_sock with
    | Error m -> Alcotest.failf "router connect: %s" m
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.raw_burst c lines with
            | Ok resps -> resps
            | Error m -> Alcotest.failf "burst: %s" m)
  in
  let decoded =
    List.map
      (fun r ->
        match Resp.of_string r with
        | Ok resp -> resp
        | Error m -> Alcotest.failf "undecodable answer %s: %s" r m)
      resps
  in
  Alcotest.(check (list string))
    "every line is answered" (List.sort compare ids)
    (List.sort compare
       (List.map (fun r -> Option.value r.Resp.id ~default:"") decoded));
  let count p = List.length (List.filter p decoded) in
  let shed =
    count (fun r ->
        match r.Resp.result with Error (Resp.Overloaded _) -> true | _ -> false)
  and served =
    count (fun r -> match r.Resp.result with Ok _ -> true | Error _ -> false)
  in
  check_bool
    (Printf.sprintf "some shed as overloaded (%d)" shed)
    true (shed >= 1);
  check_bool (Printf.sprintf "some served (%d)" served) true (served >= 1)

let suite =
  [
    Alcotest.test_case "ring: stability and bounded movement" `Quick
      test_ring_stability;
    Alcotest.test_case "affinity keys" `Quick test_affinity_key;
    Alcotest.test_case "health: ejection and half-open recovery" `Quick
      test_health_machine;
    Alcotest.test_case "deadlines shed expired work" `Quick test_deadline_shed;
    Alcotest.test_case "deadline_ms rides the envelope" `Quick
      test_deadline_envelope;
    Alcotest.test_case "client retry gives up with a count" `Quick
      test_client_retry_gives_up;
    Alcotest.test_case "bounded ping gives up on a silent peer" `Quick
      test_bounded_ping_gives_up;
    Alcotest.test_case "client retry rides out a truncated line" `Quick
      test_client_retry_truncated_line;
    Alcotest.test_case "chaos: SIGKILL one backend mid-burst" `Slow
      test_chaos_kill_one_backend;
    Alcotest.test_case "busy backend is not ejected by probe timeouts" `Slow
      test_busy_backend_not_ejected;
    Alcotest.test_case "multi-latency explore routes whole to one backend"
      `Slow test_explore_routes_whole;
    Alcotest.test_case "dead fleet sheds unavailable" `Slow
      test_router_unavailable_when_fleet_dead;
    Alcotest.test_case "framing: only the fragment counts against max_line"
      `Quick test_framing_counts_only_the_fragment;
    Alcotest.test_case "router cuts clients stalled mid-line" `Quick
      test_router_cuts_stalled_client;
    Alcotest.test_case "burst past the in-flight cap sheds, answers all"
      `Quick test_burst_sheds_past_inflight_cap;
  ]
