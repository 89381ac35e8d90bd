(* The readiness loop shared by the daemon and the router.

   One round: read the caller's timers (on_turn), cut clients stalled
   mid-line, select until the earliest deadline or a readable fd, then
   accept, read and frame client lines, run the extra fds' callbacks and
   close dead connections that owe nothing.  Deadlines come from state
   the caller already keeps, so there is no timer registry here; the
   idle bound is the only periodic wake. *)

module Resp = Hls_api.Response
module Faults = Hls_util.Faults

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable scanned : int;
  mutable alive : bool;
  mutable last_read : float;
  name : string;
}

let conn ~name fd =
  { fd; buf = Buffer.create 256; scanned = 0; alive = true;
    last_read = Unix.gettimeofday (); name }

(* One 64 KiB buffer per domain: [read] fills it, [frame] scans through
   it and [write_line] stages its writes in it.  None of the three calls
   out while it holds the buffer, so one per domain is enough.  It is not
   process-global: a daemon and a router may run on two domains of one
   process.  It is reused because a 64 KiB block goes straight to the
   major heap, and one per read paces the major GC on every request. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let write_line conn s =
  if conn.alive then begin
    let n = String.length s in
    let len = n + 1 in
    (* An armed truncate-write fault sends a prefix and slams the
       connection: the client sees a half line and a close, exactly what
       a crashing peer produces. *)
    let len, truncate =
      match Faults.on_net_write ~len with
      | Some l -> (min l len, true)
      | None -> (len, false)
    in
    let chunk = Domain.DLS.get scratch in
    (* Bytes [off, len) of [s ^ "\n"], staged one window at a time. *)
    let rec go off =
      if off < len then begin
        let k = Int.min (Bytes.length chunk) (len - off) in
        let from_s = Int.max 0 (Int.min k (n - off)) in
        Bytes.blit_string s off chunk 0 from_s;
        if from_s < k then Bytes.unsafe_set chunk from_s '\n';
        match Unix.write conn.fd chunk 0 k with
        | w -> go (off + w)
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            conn.alive <- false
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
            (* SO_SNDTIMEO expired: the peer stopped reading.  Drop it
               rather than wedge the single-threaded loop. *)
            Hls_telemetry.count (conn.name ^ ".write_timeout");
            conn.alive <- false
      end
    in
    go 0;
    if truncate && conn.alive then begin
      (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      conn.alive <- false
    end
  end

let respond conn resp = write_line conn (Resp.to_string resp)

let read conn =
  Faults.on_read ();
  let chunk = Domain.DLS.get scratch in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.alive <- false
  | n ->
      conn.last_read <- Unix.gettimeofday ();
      Buffer.add_subbytes conn.buf chunk 0 n
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> conn.alive <- false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Only the bytes after [conn.scanned] are searched for newlines, one
   scratch window at a time, so a long line arriving over many reads is
   scanned once; each complete line is copied out of the buffer once,
   and only an unterminated tail behind complete lines is moved. *)
let frame ~max_line conn =
  let buf = conn.buf in
  let n = Buffer.length buf in
  let chunk = Domain.DLS.get scratch in
  let rec scan pos start acc =
    if pos >= n then (start, acc)
    else begin
      let k = Int.min (Bytes.length chunk) (n - pos) in
      Buffer.blit buf pos chunk 0 k;
      let rec lines i start acc =
        if i >= k then scan (pos + k) start acc
        else if Bytes.unsafe_get chunk i = '\n' then
          let nl = pos + i in
          lines (i + 1) (nl + 1) (Buffer.sub buf start (nl - start) :: acc)
        else lines (i + 1) start acc
      in
      lines 0 start acc
    end
  in
  let rest, lines = scan conn.scanned 0 [] in
  if rest = n then Buffer.clear buf
  else if rest > 0 then begin
    let tail = Buffer.sub buf rest (n - rest) in
    Buffer.clear buf;
    Buffer.add_string buf tail
  end;
  conn.scanned <- n - rest;
  (List.rev lines, n - rest > max_line)

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let idle_bound = 0.1

type config = {
  name : string;
  socket : string option;
  listen : (string * int) option;
  max_line : int;
  max_conns : int option;
  io_timeout_s : float option;
  grace_s : float;
}

type hooks = {
  on_line : conn -> string -> unit;
  on_turn : float -> float;
  extra : unit -> (Unix.file_descr * (unit -> unit)) list;
  owes : conn -> bool;
  busy : unit -> bool;
  on_drain : float -> unit;
  on_drained : unit -> unit;
}

type t = {
  cfg : config;
  stop : bool Atomic.t;
  listeners : Unix.file_descr list;
  mutable conns : conn list;
}

(* ------------------------------------------------------------------ *)
(* Listeners.                                                          *)

let unix_listener path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try if Sys.file_exists path then Sys.remove path
   with Sys_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let tcp_listener ~who (host, port) =
  let ip =
    match Client.resolve_host host with
    | Ok a -> a
    | Error m -> invalid_arg (who ^ ": " ^ m)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (ip, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let create ?(handle_signals = false) ~stop cfg =
  let who = String.capitalize_ascii cfg.name ^ ".serve" in
  if cfg.socket = None && cfg.listen = None then
    invalid_arg (who ^ ": no endpoint (need a socket path or listen)");
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  if handle_signals then begin
    let quit = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm quit;
    Sys.set_signal Sys.sigint quit
  end;
  let listeners =
    Option.to_list (Option.map unix_listener cfg.socket)
    @ Option.to_list (Option.map (tcp_listener ~who) cfg.listen)
  in
  { cfg; stop; listeners; conns = [] }

(* ------------------------------------------------------------------ *)
(* The loop.                                                           *)

let count t what = Hls_telemetry.count (t.cfg.name ^ "." ^ what)

let accept t listen_fd =
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _ ->
        let c = conn ~name:t.cfg.name fd in
        let live () = List.length (List.filter (fun c -> c.alive) t.conns) in
        (if Faults.on_accept () then begin
           (* Armed drop-conn fault: close before a byte moves. *)
           count t "fault_dropped_conns";
           close c
         end
         else
        match t.cfg.max_conns with
        | Some cap when live () >= cap ->
            count t "conns_refused";
            respond c
              (Resp.fail
                 (Resp.Unavailable
                    (Printf.sprintf "connection limit reached (%d)" cap)));
            close c
        | _ ->
            count t "connections";
            (* Bounds blocking response writes; reads are select-driven
               and bounded by the stalled-line cut-off instead. *)
            Option.iter
              (fun s ->
                try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
                with Unix.Unix_error _ | Invalid_argument _ -> ())
              t.cfg.io_timeout_s;
            t.conns <- c :: t.conns);
        go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

(* A client stalled mid-line (bytes buffered, nothing arriving) holds
   memory for a request that may never finish arriving; cut it once the
   io timeout passes.  Fully idle clients cost nothing and stay.  Returns
   the next cut-off among the clients still mid-line. *)
let cut_stalled t now =
  match t.cfg.io_timeout_s with
  | None -> infinity
  | Some s ->
      List.fold_left
        (fun next c ->
          if c.alive && Buffer.length c.buf > 0 then
            if now -. c.last_read >= s then begin
              count t "read_timeout";
              respond c
                (Resp.fail
                   (Resp.Unavailable
                      (Printf.sprintf "read timeout (%.1fs mid-request)" s)));
              c.alive <- false;
              next
            end
            else Float.min next (c.last_read +. s)
          else next)
        infinity t.conns

let read_client t h c =
  read c;
  let lines, overlong = frame ~max_line:t.cfg.max_line c in
  List.iter (h.on_line c) lines;
  if overlong then begin
    respond c (Resp.fail (Resp.Usage "request line too long"));
    c.alive <- false
  end

let teardown t =
  List.iter close t.conns;
  List.iter
    (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
    t.listeners;
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.cfg.socket

let run t h =
  let drain = ref None in
  let rec round () =
    let now = Unix.gettimeofday () in
    if !drain = None && Atomic.get t.stop then begin
      let d = now +. t.cfg.grace_s in
      drain := Some d;
      h.on_drain d
    end;
    let wake = h.on_turn now in
    match !drain with
    | Some d when (not (h.busy ())) || Unix.gettimeofday () >= d -> ()
    | _ ->
        (* Draining: clients are neither accepted nor read any more. *)
        let wake, client_fds =
          match !drain with
          | Some d -> (Float.min wake d, [])
          | None ->
              ( Float.min wake (cut_stalled t now),
                t.listeners
                @ List.filter_map
                    (fun c -> if c.alive then Some c.fd else None)
                    t.conns )
        in
        let timeout =
          Float.max 0. (Float.min idle_bound (wake -. Unix.gettimeofday ()))
        in
        let extra = h.extra () in
        (match Unix.select (client_fds @ List.map fst extra) [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
            if !drain = None then begin
              List.iter
                (fun l -> if List.memq l ready then accept t l)
                t.listeners;
              List.iter
                (fun c ->
                  if c.alive && List.memq c.fd ready then read_client t h c)
                t.conns
            end;
            List.iter (fun (fd, f) -> if List.memq fd ready then f ()) extra);
        let dead, live =
          List.partition (fun c -> (not c.alive) && not (h.owes c)) t.conns
        in
        List.iter close dead;
        t.conns <- live;
        round ()
  in
  Fun.protect
    ~finally:(fun () -> teardown t)
    (fun () ->
      round ();
      h.on_drained ())
