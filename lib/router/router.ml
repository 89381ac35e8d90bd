(* The front-end router: one process that owns client connections and
   fans requests out over N backend daemons.

   Everything runs in one coordinator on Hls_server.Loop, the readiness
   loop the daemon uses too: the loop owns client sockets, framing,
   writes and read timeouts, and also waits on the backend connections.
   It wakes on the earliest of the next probe, an outstanding probe's
   timeout, a held request's retry time and the drain grace.  Client
   lines are decoded, admitted against a bounded in-flight cap,
   and consistent-hashed by graph digest onto a backend (digest affinity
   keeps each design's memoized prepare prefix and WAL cache hot on one
   shard).  Requests are forwarded with rewritten ids ("r<seq>"), and
   responses are re-encoded under the original id — the response codec
   round-trips exactly, so a routed answer is byte-identical to a
   one-shot one.

   Failure handling:
   - every backend answer (even an error) proves liveness; transport
     failures and probe timeouts count against a consecutive-failure
     budget (Health), ejecting the backend until a half-open probe
     succeeds;
   - in-flight requests on a dead backend fail over to the next replica
     clockwise (all verbs are pure queries, so replays are safe) under a
     Retry_policy backoff; when the budget is spent the client gets a
     retryable Unavailable;
   - explore requests with several latencies scatter their latency axis
     over the routable backends and the shard frontiers merge through
     Merge (feedback sweeps don't scatter: refinement is global);
   - router-owned backends ([spawn]) are reaped with waitpid and
     respawned when they die.

   Shedding is end to end: Overloaded (exit 6) when the in-flight cap is
   hit, the request's own deadline when it expires, Unavailable (exit 8)
   when no healthy backend exists or shutdown cuts the drain short. *)

module R = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Client = Hls_server.Client
module Retry_policy = Hls_pool.Retry_policy
module Loop = Hls_server.Loop

type spawn = {
  count : int;
  command : int -> string array;  (** index -> argv (argv.(0) = program) *)
  socket_of : int -> string;  (** index -> socket path the child serves *)
}

type config = {
  socket : string option;
  listen : (string * int) option;
  backends : string list;  (** externally managed backend addresses *)
  spawn : spawn option;
  max_inflight : int;
  retry : Retry_policy.t;
  probe_interval_s : float;
  probe_timeout_s : float;
  eject_after : int;
  cooldown_s : float;
  hold_s : float;  (** how long an unroutable request waits for a backend *)
  grace_s : float;
  io_timeout_s : float option;
      (** SO_SNDTIMEO on accepted client connections, and the cut-off
          for a client stalled mid-line *)
  max_line : int;
}

let default_config () =
  {
    socket = None;
    listen = None;
    backends = [];
    spawn = None;
    max_inflight = 256;
    retry = Retry_policy.make ~attempts:3 ~backoff_s:0.05 ();
    probe_interval_s = 0.5;
    probe_timeout_s = 2.0;
    eject_after = 3;
    cooldown_s = 1.0;
    hold_s = 5.0;
    grace_s = 5.0;
    io_timeout_s = Some 30.0;
    max_line = 8 * 1024 * 1024;
  }

type stats = {
  served : int Atomic.t;  (** responses delivered to clients *)
  failovers : int Atomic.t;  (** in-flight requests re-routed *)
  respawns : int Atomic.t;  (** dead children restarted *)
  shed : int Atomic.t;  (** Overloaded / Unavailable / deadline answers *)
  healthy : int Atomic.t;  (** routable backends, updated each sweep *)
}

let make_stats () =
  {
    served = Atomic.make 0;
    failovers = Atomic.make 0;
    respawns = Atomic.make 0;
    shed = Atomic.make 0;
    healthy = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Affinity keys.                                                      *)

(* The routing key is the elaborated graph's digest whenever the spec
   can be elaborated router-side (Source text, Builtin names) — the same
   digest that keys the backend's prepare memo and sweep cache.  File
   paths resolve on the executing side, so their key is the path. *)
let affinity_key =
  let memo : (R.spec, string) Hashtbl.t = Hashtbl.create 64 in
  fun req ->
    match R.spec_of req with
    | None -> "ping"
    | Some spec -> (
        match Hashtbl.find_opt memo spec with
        | Some k -> k
        | None ->
            let k =
              match spec with
              | R.Builtin name -> (
                  match Hls_workloads.Catalog.find_graph name with
                  | Some g -> Hls_dse.Cache.graph_digest g
                  | None -> "builtin:" ^ name)
              | R.Source src -> (
                  match Hls_speclang.Elaborate.from_string_result src with
                  | Ok g -> Hls_dse.Cache.graph_digest g
                  | Error _ -> Digest.to_hex (Digest.string src))
              | R.File path -> "file:" ^ path
            in
            if Hashtbl.length memo > 4096 then Hashtbl.reset memo;
            Hashtbl.add memo spec k;
            k)

(* ------------------------------------------------------------------ *)
(* Backends.                                                           *)

type backend = {
  b_name : string;  (** address string; also the ring name *)
  b_address : Client.address;
  b_spawn_index : int option;
  mutable b_pid : int option;
  mutable b_conn : Loop.conn option;
  b_health : Health.t;
  mutable b_probe : (string * float) option;  (** outstanding (id, sent) *)
}

(* ------------------------------------------------------------------ *)
(* In-flight requests.                                                 *)

type gather = {
  g_client : Loop.conn;
  g_id : string option;
  g_total : int;
  mutable g_parts : (int * Hls_dse.Explore.t) list;
  mutable g_done : bool;  (** answered (merged or failed); drop stragglers *)
}

type inflight = {
  i_seq : int;
  i_client : Loop.conn;
  i_id : string option;
  i_deadline : float option;
  i_req : R.t;
  i_key : string;
  i_enqueued : float;
  mutable i_attempt : int;  (** dispatches so far *)
  mutable i_excluded : string list;
  mutable i_backend : string option;  (** where it is right now *)
  i_gather : (gather * int) option;  (** parent, shard index *)
}

(* ------------------------------------------------------------------ *)
(* The router.                                                         *)

let serve ?(stop = Atomic.make false) ?(handle_signals = false)
    ?(stats = make_stats ()) ?(log = fun _ -> ()) cfg =
  if cfg.backends = []
     && match cfg.spawn with None -> true | Some sp -> sp.count <= 0
  then invalid_arg "Router.serve: no backends";
  let loop =
    Loop.create ~handle_signals ~stop
      {
        Loop.name = "router";
        socket = cfg.socket;
        listen = cfg.listen;
        max_line = cfg.max_line;
        max_conns = None;
        io_timeout_s = cfg.io_timeout_s;
        grace_s = cfg.grace_s;
      }
  in
  (* ---- backend table --------------------------------------------- *)
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawn_child (sp : spawn) i =
    let argv = sp.command i in
    (try if Sys.file_exists (sp.socket_of i) then Sys.remove (sp.socket_of i)
     with Sys_error _ -> ());
    Unix.create_process argv.(0) argv devnull devnull Unix.stderr
  in
  let mk_backend ?spawn_index ?pid name =
    {
      b_name = name;
      b_address = Client.parse_address name;
      b_spawn_index = spawn_index;
      b_pid = pid;
      b_conn = None;
      b_health =
        Health.make ~eject_after:cfg.eject_after ~cooldown_s:cfg.cooldown_s ();
      b_probe = None;
    }
  in
  let backends =
    List.map (fun name -> mk_backend name) cfg.backends
    @
    match cfg.spawn with
    | None -> []
    | Some sp ->
        List.init sp.count (fun i ->
            let pid = spawn_child sp i in
            log (Printf.sprintf "spawned backend %d (pid %d) on %s" i pid
                   (sp.socket_of i));
            mk_backend ~spawn_index:i ~pid (sp.socket_of i))
  in
  let backend_tbl = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace backend_tbl b.b_name b) backends;
  let ring = Ring.make (List.map (fun b -> b.b_name) backends) in
  (* Wait for spawned children to come up so early requests don't burn
     through the hold window while the fleet boots.  Each attempt is a
     ping bounded by the client's socket timeouts, so the 10 s deadline
     holds even against a child that accepts the connection and then
     never answers (or never reads). *)
  (match cfg.spawn with
  | None -> ()
  | Some sp ->
      let deadline = Unix.gettimeofday () +. 10. in
      let answers socket =
        match Client.call ~socket ~timeout_s:0.5 R.Ping with
        | Ok { Resp.result = Ok _; _ } -> true
        | Ok _ | Error _ -> false
      in
      List.iter
        (fun i ->
          let rec wait () =
            if Unix.gettimeofday () < deadline && not (answers (sp.socket_of i))
            then begin
              Unix.sleepf 0.05;
              wait ()
            end
          in
          wait ())
        (List.init sp.count Fun.id));
  (* ---- shared mutable state -------------------------------------- *)
  let inflight_tbl : (int, inflight) Hashtbl.t = Hashtbl.create 64 in
  let waiting : (inflight * float) Queue.t = Queue.create () in
  let seq = ref 0 in
  let probe_seq = ref 0 in
  let last_probe = ref 0. in
  let inflight_load () = Hashtbl.length inflight_tbl + Queue.length waiting in
  let respond_client conn resp =
    Loop.respond conn resp;
    Atomic.incr stats.served
  in
  let shed conn ?id error =
    Atomic.incr stats.shed;
    Hls_telemetry.count "router.shed";
    respond_client conn (Resp.fail ?id error)
  in
  (* ---- backend connectivity -------------------------------------- *)
  let close_bconn b =
    (match b.b_conn with
    | Some c ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        c.alive <- false
    | None -> ());
    b.b_conn <- None;
    b.b_probe <- None
  in
  let ensure_conn b =
    match b.b_conn with
    | Some c when c.alive -> Some c
    | _ -> (
        close_bconn b;
        match Client.connect_fd b.b_address with
        | Error _ -> None
        | Ok fd ->
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.probe_timeout_s
             with Unix.Unix_error _ | Invalid_argument _ -> ());
            let c = Loop.conn ~name:"router" fd in
            b.b_conn <- Some c;
            Some c)
  in
  (* ---- failover --------------------------------------------------- *)
  let reroute_failure reason =
    Hls_util.Failure.Internal (Hls_util.Failure.Remote reason)
  in
  let give_up fl reason =
    Hashtbl.remove inflight_tbl fl.i_seq;
    match fl.i_gather with
    | Some (g, _) when g.g_done -> ()
    | Some (g, _) ->
        g.g_done <- true;
        shed g.g_client ?id:g.g_id (Resp.Unavailable reason)
    | None -> shed fl.i_client ?id:fl.i_id (Resp.Unavailable reason)
  in
  let reroute now fl reason =
    (* Back into the waiting queue only: leaving the entry in
       inflight_tbl too would double-count it in inflight_load and shed
       Overloaded prematurely under failover churn.  dispatch re-enters
       it when it lands on a backend again. *)
    Hashtbl.remove inflight_tbl fl.i_seq;
    (match fl.i_backend with
    | Some name when not (List.mem name fl.i_excluded) ->
        fl.i_excluded <- name :: fl.i_excluded
    | _ -> ());
    fl.i_backend <- None;
    if Retry_policy.should_retry cfg.retry ~attempt:fl.i_attempt
         (reroute_failure reason)
    then begin
      Atomic.incr stats.failovers;
      Hls_telemetry.count "router.failovers";
      let delay = Retry_policy.delay_s cfg.retry ~attempt:fl.i_attempt ~job:fl.i_seq in
      Queue.add (fl, now +. delay) waiting
    end
    else
      give_up fl
        (Printf.sprintf "backend failed (%s); retry budget exhausted" reason)
  in
  let fail_backend now b reason =
    close_bconn b;
    Health.record_failure ~now b.b_health;
    Hls_telemetry.count "router.backend_failures";
    (match Health.state b.b_health with
    | Health.Ejected _ -> log (Printf.sprintf "backend %s ejected (%s)" b.b_name reason)
    | _ -> ());
    let stranded =
      Hashtbl.fold
        (fun _ fl acc ->
          if fl.i_backend = Some b.b_name then fl :: acc else acc)
        inflight_tbl []
    in
    List.iter (fun fl -> reroute now fl reason) stranded
  in
  (* ---- dispatch --------------------------------------------------- *)
  let send_to_backend b fl =
    match ensure_conn b with
    | None -> false
    | Some c ->
        let line =
          Hls_dse.Dse_json.to_string
            (R.to_json
               ~id:("r" ^ string_of_int fl.i_seq)
               ?deadline_ms:fl.i_deadline fl.i_req)
        in
        Loop.write_line c line;
        c.alive
  in
  let dispatch now fl =
    match fl.i_deadline with
    | Some d when Exec.expired d ->
        Hashtbl.remove inflight_tbl fl.i_seq;
        Atomic.incr stats.shed;
        Hls_telemetry.count "router.deadline_shed";
        let err = Resp.Failed (Exec.deadline_failure d) in
        (match fl.i_gather with
        | Some (g, _) when g.g_done -> ()
        | Some (g, _) ->
            g.g_done <- true;
            respond_client g.g_client (Resp.fail ?id:g.g_id err)
        | None -> respond_client fl.i_client (Resp.fail ?id:fl.i_id err))
    | _ ->
        let rec pick exclude =
          match Ring.lookup ~exclude ring fl.i_key with
          | None -> None
          | Some name ->
              let b = Hashtbl.find backend_tbl name in
              if Health.is_routable b.b_health then
                if send_to_backend b fl then Some b
                else begin
                  fail_backend now b "cannot reach backend";
                  pick (name :: exclude)
                end
              else pick (name :: exclude)
        in
        (match pick fl.i_excluded with
        | Some b ->
            fl.i_attempt <- fl.i_attempt + 1;
            fl.i_backend <- Some b.b_name;
            Hashtbl.replace inflight_tbl fl.i_seq fl
        | None ->
            if now -. fl.i_enqueued > cfg.hold_s then begin
              Hashtbl.remove inflight_tbl fl.i_seq;
              give_up fl "no healthy backend"
            end
            else begin
              (* Nothing routable right now; hold and retry shortly.
                 A previously excluded backend may recover, so widen the
                 candidate set again. *)
              fl.i_excluded <- [];
              Queue.add (fl, now +. 0.1) waiting
            end)
  in
  (* ---- scatter-gather explore ------------------------------------ *)
  let routable_count () =
    List.length (List.filter (fun b -> Health.is_routable b.b_health) backends)
  in
  let enqueue now fl = dispatch now fl in
  let admit_explore now conn id deadline req spec
      (params : R.explore_params) =
    let shards = min (routable_count ()) (List.length params.R.latencies) in
    if shards < 2 || params.R.feedback > 0 then
      (* Route whole: nothing to split, or the feedback loop needs the
         global frontier between rounds. *)
      None
    else begin
      (* Round-robin the latency axis so each shard gets a spread, not a
         contiguous band of the cheap or expensive end. *)
      let chunks = Array.make shards [] in
      List.iteri
        (fun i l -> chunks.(i mod shards) <- l :: chunks.(i mod shards))
        params.R.latencies;
      let g =
        { g_client = conn; g_id = id; g_total = shards; g_parts = [];
          g_done = false }
      in
      let key = affinity_key req in
      Some
        (List.init shards (fun k ->
             incr seq;
             let shard_req =
               R.Explore
                 { spec;
                   params = { params with R.latencies = List.rev chunks.(k) } }
             in
             let fl =
               {
                 i_seq = !seq;
                 i_client = conn;
                 i_id = id;
                 i_deadline = deadline;
                 i_req = shard_req;
                 (* per-shard keys spread the scatter over the ring
                    instead of piling every shard on the digest's owner *)
                 i_key = Printf.sprintf "%s#shard%d" key k;
                 i_enqueued = now;
                 i_attempt = 0;
                 i_excluded = [];
                 i_backend = None;
                 i_gather = Some (g, k);
               }
             in
             fl))
    end
  in
  let finish_gather g =
    let parts =
      List.sort (fun (a, _) (b, _) -> compare a b) g.g_parts
      |> List.map snd
    in
    match Merge.merge parts with
    | merged ->
        g.g_done <- true;
        respond_client g.g_client
          { Resp.id = g.g_id; result = Ok (Resp.Explored merged) }
    | exception Invalid_argument m ->
        g.g_done <- true;
        respond_client g.g_client
          (Resp.fail ?id:g.g_id
             (Resp.Failed
                (Hls_util.Failure.Internal (Hls_util.Failure.Remote m))))
  in
  (* ---- backend responses ------------------------------------------ *)
  let settle_response b resp =
    Health.record_success b.b_health;
    match resp.Resp.id with
    | Some id
      when String.length id > 2 && String.sub id 0 2 = "hc" ->
        b.b_probe <- None
    | Some id when String.length id > 1 && id.[0] = 'r' -> (
        match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
        | None -> ()
        | Some n -> (
            match Hashtbl.find_opt inflight_tbl n with
            | None -> ()  (* straggler after failover answered elsewhere *)
            | Some fl -> (
                Hashtbl.remove inflight_tbl n;
                match fl.i_gather with
                | None ->
                    respond_client fl.i_client
                      { resp with Resp.id = fl.i_id }
                | Some (g, k) ->
                    if not g.g_done then (
                      match resp.Resp.result with
                      | Ok (Resp.Explored shard) ->
                          g.g_parts <- (k, shard) :: g.g_parts;
                          if List.length g.g_parts = g.g_total then
                            finish_gather g
                      | Ok _ ->
                          g.g_done <- true;
                          respond_client g.g_client
                            (Resp.fail ?id:g.g_id
                               (Resp.Failed
                                  (Hls_util.Failure.Internal
                                     (Hls_util.Failure.Remote
                                        "explore shard answered with a \
                                         non-explore payload"))))
                      | Error e ->
                          g.g_done <- true;
                          respond_client g.g_client
                            (Resp.fail ?id:g.g_id e)))))
    | _ -> ()
  in
  let handle_backend_line b line =
    if String.trim line <> "" then
      match Resp.of_string line with
      | Ok resp -> settle_response b resp
      | Error _ -> Hls_telemetry.count "router.bad_backend_lines"
  in
  (* ---- client requests -------------------------------------------- *)
  let handle_client_line now conn line =
    if String.trim line = "" then ()
    else
      match R.envelope_of_string line with
      | Error (`Usage m) -> respond_client conn (Resp.fail (Resp.Usage m))
      | Error (`Unsupported_version n) ->
          respond_client conn (Resp.fail (Resp.Unsupported_version n))
      | Ok { R.env_id = id; env_deadline_ms = deadline; env_req } -> (
          match env_req with
          | R.Ping ->
              respond_client conn
                { Resp.id;
                  result = Ok (Resp.Pong { pong_pid = Unix.getpid () }) }
          | R.Stats ->
              (* Answered from the router's own counters — a stats probe
                 must work even when the whole fleet is down. *)
              respond_client conn
                { Resp.id;
                  result =
                    Ok
                      (Resp.Stats
                         {
                           st_source = "router";
                           st_gauges =
                             [
                               ("pid", Unix.getpid ());
                               ("served", Atomic.get stats.served);
                               ("failovers", Atomic.get stats.failovers);
                               ("respawns", Atomic.get stats.respawns);
                               ("shed", Atomic.get stats.shed);
                               ("healthy", Atomic.get stats.healthy);
                               ("inflight", inflight_load ());
                             ];
                         }) }
          | _ -> (
              match deadline with
              | Some d when Exec.expired d ->
                  Hls_telemetry.count "router.deadline_shed";
                  Atomic.incr stats.shed;
                  respond_client conn
                    (Resp.fail ?id (Resp.Failed (Exec.deadline_failure d)))
              | _ ->
                  if inflight_load () >= cfg.max_inflight then
                    shed conn ?id
                      (Resp.Overloaded
                         {
                           queued = inflight_load ();
                           capacity = cfg.max_inflight;
                         })
                  else
                    let scatter =
                      match env_req with
                      | R.Explore { spec; params } ->
                          admit_explore now conn id deadline env_req spec
                            params
                      | _ -> None
                    in
                    (match scatter with
                    | Some shards -> List.iter (enqueue now) shards
                    | None ->
                        incr seq;
                        enqueue now
                          {
                            i_seq = !seq;
                            i_client = conn;
                            i_id = id;
                            i_deadline = deadline;
                            i_req = env_req;
                            i_key = affinity_key env_req;
                            i_enqueued = now;
                            i_attempt = 0;
                            i_excluded = [];
                            i_backend = None;
                            i_gather = None;
                          })))
  in
  (* ---- health probes ---------------------------------------------- *)
  let backend_busy b =
    Hashtbl.fold
      (fun _ fl acc -> acc || fl.i_backend = Some b.b_name)
      inflight_tbl false
  in
  (* Returns the next time a probe is due or an outstanding one times
     out. *)
  let probe_sweep now =
    (* Time out a stuck probe — but liveness is decoupled from request
       latency: a backend with our requests in flight has a
       single-threaded coordinator that answers pings between batches,
       so a late probe while it owes us answers only proves it is
       executing, not dead.  A crash still surfaces immediately as
       EOF/ECONNRESET on the connection.  Only an *idle* backend that
       cannot answer a ping within the probe timeout counts as failed. *)
    List.iter
      (fun b ->
        match b.b_probe with
        | Some (_, sent) when now -. sent >= cfg.probe_timeout_s ->
            if backend_busy b then b.b_probe <- None
            else fail_backend now b "probe timeout"
        | _ -> ())
      backends;
    if now -. !last_probe >= cfg.probe_interval_s then begin
      last_probe := now;
      List.iter
        (fun b ->
          let want_probe =
            b.b_probe = None
            && (Health.is_routable b.b_health
               || Health.trial_due ~now b.b_health)
          in
          if want_probe then
            match ensure_conn b with
            | None ->
                (* a half-open trial that cannot even connect fails *)
                if Health.state b.b_health = Health.Half_open then
                  Health.record_failure ~now b.b_health
            | Some c ->
                incr probe_seq;
                let id = "hc" ^ string_of_int !probe_seq in
                Loop.write_line c
                  (Hls_dse.Dse_json.to_string (R.to_json ~id R.Ping));
                if c.alive then b.b_probe <- Some (id, now)
                else fail_backend now b "probe write failed")
        backends;
      Atomic.set stats.healthy (routable_count ());
      Hls_telemetry.gauge "router.healthy_backends" (float (routable_count ()));
      Hls_telemetry.gauge "router.inflight" (float (inflight_load ()));
      List.iter
        (fun b ->
          Hls_telemetry.gauge
            ("router.backend." ^ b.b_name ^ ".healthy")
            (if Health.is_routable b.b_health then 1. else 0.))
        backends
    end;
    List.fold_left
      (fun next b ->
        match b.b_probe with
        | Some (_, sent) -> Float.min next (sent +. cfg.probe_timeout_s)
        | None -> next)
      (!last_probe +. cfg.probe_interval_s)
      backends
  in
  (* ---- child reaping / respawn ------------------------------------ *)
  let reap_children now =
    match cfg.spawn with
    | None -> ()
    | Some sp ->
        List.iter
          (fun b ->
            match (b.b_pid, b.b_spawn_index) with
            | Some pid, Some i -> (
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> ()
                | _ ->
                    b.b_pid <- None;
                    fail_backend now b
                      (Printf.sprintf "backend process %d died" pid);
                    if not (Atomic.get stop) then begin
                      let pid' = spawn_child sp i in
                      b.b_pid <- Some pid';
                      Atomic.incr stats.respawns;
                      Hls_telemetry.count "router.respawns";
                      log
                        (Printf.sprintf
                           "respawned backend %d (pid %d) on %s" i pid'
                           b.b_name)
                    end
                | exception Unix.Unix_error _ -> b.b_pid <- None)
            | _ -> ())
          backends
  in
  (* ---- waiting queue ---------------------------------------------- *)
  (* Dispatches every entry that is due; returns the earliest not-before
     time still waiting. *)
  let run_waiting now =
    let n = Queue.length waiting in
    for _ = 1 to n do
      let fl, not_before = Queue.pop waiting in
      if now >= not_before then dispatch now fl
      else Queue.add (fl, not_before) waiting
    done;
    Queue.fold (fun next (_, t) -> Float.min next t) infinity waiting
  in
  (* ---- backend reads ---------------------------------------------- *)
  let backend_fds () =
    List.filter_map
      (fun b ->
        match b.b_conn with
        | Some c when c.alive ->
            Some
              ( c.fd,
                fun () ->
                  (* a dispatch earlier in this round may have closed it *)
                  if c.alive then begin
                    Loop.read c;
                    List.iter (handle_backend_line b)
                      (fst (Loop.frame ~max_line:max_int c));
                    if not c.alive then
                      fail_backend (Unix.gettimeofday ()) b
                        "backend connection lost"
                  end )
        | _ -> None)
      backends
  in
  (* ---- drain ------------------------------------------------------ *)
  let stop_children () =
    let pids = List.filter_map (fun b -> b.b_pid) backends in
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      pids;
    let kill_deadline = Unix.gettimeofday () +. 5. in
    let rec reap pid =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < kill_deadline ->
          Unix.sleepf 0.05;
          reap pid
      | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
      | _ | (exception Unix.Unix_error _) -> ()
    in
    List.iter reap pids
  in
  let give_up_waiting reason =
    Queue.iter (fun (fl, _) -> give_up fl reason) waiting;
    Queue.clear waiting
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_bconn backends;
      try Unix.close devnull with Unix.Unix_error _ -> ())
    (fun () ->
      Loop.run loop
        {
          Loop.on_line =
            (fun c line -> handle_client_line (Unix.gettimeofday ()) c line);
          on_turn =
            (fun now ->
              (* No probes or respawns once stopping: the drain only
                 waits on answers already owed. *)
              let next_probe =
                if Atomic.get stop then infinity
                else begin
                  reap_children now;
                  probe_sweep now
                end
              in
              Float.min next_probe (run_waiting now));
          extra = backend_fds;
          owes =
            (fun c ->
              Hashtbl.fold
                (fun _ fl acc -> acc || fl.i_client == c)
                inflight_tbl false);
          busy = (fun () -> inflight_load () > 0);
          on_drain =
            (fun _ ->
              (* Stop taking work; the loop waits on the backends for
                 in-flight answers within the grace window. *)
              give_up_waiting "router draining");
          on_drained =
            (fun () ->
              (* Answer whatever the grace window cut off, then bring the
                 children down with us. *)
              let reason = "draining: shutdown grace expired" in
              Hashtbl.fold (fun _ fl acc -> fl :: acc) inflight_tbl []
              |> List.iter (fun fl -> give_up fl reason);
              (* failovers during the drain may have parked work here *)
              give_up_waiting reason;
              stop_children ());
        })
