(* Content-hash memoization for design-space sweeps.

   A sweep point is keyed by (graph digest, job parameter string): the
   digest is an MD5 of the graph's full printed form (name, ports, nodes,
   widths — everything that feeds the flow), so any edit to the
   specification invalidates its entries while re-runs on the same spec
   hit.  Values are the scalar metrics of a `Pipeline.report`; the heavy
   structures (datapath, schedule) are cheap to drop because a hit means
   we do not need them.

   The store is a single JSON file, loaded whole and rewritten whole on
   `flush` — sweeps are thousands of entries at most.  Floats round-trip
   exactly (see Dse_json), so a cache hit reproduces the original metrics
   byte-for-byte.

   Crash-safety is layered on top of the JSON store:

   - an append-only journal `<path>.wal` (one `{"k": …, "m": {…}}` object
     per line, fsynced per batch) receives new entries as the sweep runs
     (`journal`, called by Explore after every round).  `create` replays
     it after loading the store, so a sweep killed mid-run resumes from
     everything it had already computed; `flush` compacts it into the
     rewritten store and deletes it.  A truncated final line — the
     expected shape of a crash mid-append — is skipped; replay is
     idempotent because journaled entries also land in the store.
   - `flush` writes to `<path>.tmp` under `Fun.protect` (no stale .tmp on
     an exception), fsyncs before the atomic rename, and removes any
     pre-existing .tmp first.
   - an advisory lock `<path>.lock` (O_EXCL pid file with staleness
     check) stops two sweeps from interleaving writes to one store.

   Concurrency within a process: the cache is coordinator-only.
   `Explore` looks entries up before dispatching jobs to the pool and
   inserts results after collecting them, so worker domains never touch
   it and no in-process locking is needed. *)

type metrics = {
  m_flow : string;
  m_latency : int;
  m_cycle_delta : int;
  m_cycle_ns : float;
  m_execution_ns : float;
  m_op_count : int;
  m_fragment_count : int;
  m_fu_gates : int;
  m_register_gates : int;
  m_mux_gates : int;
  m_controller_gates : int;
  m_total_gates : int;
}

let metrics_of_report (r : Hls_core.Pipeline.report) =
  let a = r.Hls_core.Pipeline.area in
  {
    m_flow = r.Hls_core.Pipeline.flow;
    m_latency = r.Hls_core.Pipeline.latency;
    m_cycle_delta = r.Hls_core.Pipeline.cycle_delta;
    m_cycle_ns = r.Hls_core.Pipeline.cycle_ns;
    m_execution_ns = r.Hls_core.Pipeline.execution_ns;
    m_op_count = r.Hls_core.Pipeline.op_count;
    m_fragment_count = r.Hls_core.Pipeline.fragment_count;
    m_fu_gates = a.Hls_alloc.Datapath.fu_gates;
    m_register_gates = a.Hls_alloc.Datapath.register_gates;
    m_mux_gates = a.Hls_alloc.Datapath.mux_gates;
    m_controller_gates = a.Hls_alloc.Datapath.controller_gates;
    m_total_gates = a.Hls_alloc.Datapath.total_gates;
  }

let metrics_codec =
  Codec.(
    obj
      (fun m_flow m_latency m_cycle_delta m_cycle_ns m_execution_ns m_op_count
           m_fragment_count m_fu_gates m_register_gates m_mux_gates
           m_controller_gates m_total_gates ->
        {
          m_flow; m_latency; m_cycle_delta; m_cycle_ns; m_execution_ns;
          m_op_count; m_fragment_count; m_fu_gates; m_register_gates;
          m_mux_gates; m_controller_gates; m_total_gates;
        })
    |> req "flow" string (fun m -> m.m_flow)
    |> req "latency" int (fun m -> m.m_latency)
    |> req "cycle_delta" int (fun m -> m.m_cycle_delta)
    |> req "cycle_ns" float (fun m -> m.m_cycle_ns)
    |> req "execution_ns" float (fun m -> m.m_execution_ns)
    |> req "op_count" int (fun m -> m.m_op_count)
    |> req "fragment_count" int (fun m -> m.m_fragment_count)
    |> req "fu_gates" int (fun m -> m.m_fu_gates)
    |> req "register_gates" int (fun m -> m.m_register_gates)
    |> req "mux_gates" int (fun m -> m.m_mux_gates)
    |> req "controller_gates" int (fun m -> m.m_controller_gates)
    |> req "total_gates" int (fun m -> m.m_total_gates)
    |> finish ~what:"metrics")

let metrics_to_json = Codec.encode metrics_codec
let metrics_of_json j = Result.to_option (Codec.decode metrics_codec j)

(* One journal line: an entry's key and its metrics. *)
let wal_entry =
  Codec.(
    obj (fun k m -> (k, m))
    |> req "k" string fst
    |> req "m" metrics_codec snd
    |> finish)

(* ------------------------------------------------------------------ *)

exception Locked of string

type t = {
  path : string option;
  lock_path : string option;  (** held advisory lock, released by {!close} *)
  entries : (string, metrics) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable dirty : bool;
  mutable pending : (string * metrics) list;
      (** entries added since the last {!journal}, newest first *)
  mutable warnings : string list;  (** load-time damage, newest first *)
  mutable recovered : int;  (** entries replayed from the journal *)
  mutable released : bool;
}

let graph_digest g =
  match Hls_workloads.Catalog.built_digest g with
  | Some d -> d
  | None -> Hls_dfg.Graph.digest g

let key ~graph_digest ~job_key =
  Digest.to_hex (Digest.string (graph_digest ^ "|" ^ job_key))

let wal_path p = p ^ ".wal"
let tmp_path p = p ^ ".tmp"

(* ---- advisory lock: O_EXCL pid file with staleness check ---------- *)

let read_lock_pid lp =
  match open_in lp with
  | ic ->
      let pid = try int_of_string_opt (input_line ic) with End_of_file -> None in
      close_in ic;
      pid
  | exception Sys_error _ -> None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true (* EPERM etc.: someone owns it, treat as alive *)

let acquire_lock path =
  let lp = path ^ ".lock" in
  let try_create () =
    match Unix.openfile lp [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
    | fd ->
        let pid = string_of_int (Unix.getpid ()) ^ "\n" in
        ignore (Unix.write_substring fd pid 0 (String.length pid) : int);
        Unix.close fd;
        true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  let rec go tries =
    if try_create () then lp
    else
      let stale =
        match read_lock_pid lp with
        | Some pid -> not (pid_alive pid)
        | None -> true (* unreadable or empty: a crash mid-write; reclaim *)
      in
      if stale && tries > 0 then begin
        (try Sys.remove lp with Sys_error _ -> ());
        go (tries - 1)
      end
      else raise (Locked lp)
  in
  go 3

(* ---- store + journal loading ------------------------------------- *)

let warn t msg = t.warnings <- msg :: t.warnings

let load_store t path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    (* An empty file is a fresh store (Filename.temp_file, touch), not
       damage. *)
    if String.trim src = "" then Ok (Dse_json.Obj [])
    else Dse_json.of_string src
  with
  | Ok (Dse_json.Obj fields) ->
      let skipped = ref 0 in
      List.iter
        (fun (k, v) ->
          match metrics_of_json v with
          | Some m -> Hashtbl.replace t.entries k m
          | None -> incr skipped (* malformed entry: it will recompute *))
        fields;
      if !skipped > 0 then
        warn t
          (Printf.sprintf "%s: skipped %d malformed entr%s" path !skipped
             (if !skipped = 1 then "y" else "ies"))
  | Ok _ -> warn t (path ^ ": cache root is not an object; starting empty")
  | Error m -> warn t (path ^ ": " ^ m ^ "; starting empty")
  | exception Sys_error m -> warn t (m ^ "; starting empty")

let wal_entry_of_line line =
  Result.to_option
    (Result.bind (Dse_json.of_string line) (Codec.decode wal_entry))

let replay_wal t path =
  let wp = wal_path path in
  if Sys.file_exists wp then begin
    match open_in_bin wp with
    | exception Sys_error m -> warn t (m ^ "; journal ignored")
    | ic ->
        let bad = ref 0 and lines = ref 0 in
        (try
           while true do
             let line = input_line ic in
             incr lines;
             if String.trim line <> "" then
               match wal_entry_of_line line with
               | Some (k, m) ->
                   if not (Hashtbl.mem t.entries k) then begin
                     Hashtbl.replace t.entries k m;
                     t.recovered <- t.recovered + 1;
                     (* replayed entries are not in the store yet *)
                     t.dirty <- true
                   end
               | None -> incr bad
           done
         with End_of_file -> ());
        close_in ic;
        (* A crash mid-append truncates exactly the final line; more bad
           lines than that means real damage worth reporting. *)
        if !bad > 1 then
          warn t
            (Printf.sprintf "%s: skipped %d malformed journal lines" wp !bad)
  end

let create ?path () =
  let lock_path = Option.map acquire_lock path in
  let t =
    {
      path;
      lock_path;
      entries = Hashtbl.create 64;
      hits = 0;
      misses = 0;
      dirty = false;
      pending = [];
      warnings = [];
      recovered = 0;
      released = false;
    }
  in
  (match path with
  | Some p ->
      (* A corrupt store must not kill a sweep: load what parses, count
         the damage (see [load_warnings]), recompute the rest. *)
      if Sys.file_exists p then load_store t p;
      replay_wal t p;
      if t.recovered > 0 then
        Hls_telemetry.count ~n:t.recovered "cache.recovered"
  | None -> ());
  t

let find t k =
  match Hashtbl.find_opt t.entries k with
  | Some m ->
      t.hits <- t.hits + 1;
      Hls_telemetry.count "cache.hit";
      Some m
  | None ->
      t.misses <- t.misses + 1;
      Hls_telemetry.count "cache.miss";
      None

let mem t k = Hashtbl.mem t.entries k

let add t k m =
  Hashtbl.replace t.entries k m;
  t.pending <- (k, m) :: t.pending;
  t.dirty <- true

let length t = Hashtbl.length t.entries
let hits t = t.hits
let misses t = t.misses
let load_warnings t = List.rev t.warnings
let recovered t = t.recovered

let to_json t =
  let fields =
    Hashtbl.fold (fun k m acc -> (k, metrics_to_json m) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Dse_json.Obj fields

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Append the entries added since the last call to the write-ahead
   journal and fsync it: after this returns, a crash loses nothing the
   sweep has computed.  Memory-only caches just drop the pending list. *)
let journal t =
  match t.path with
  | None -> t.pending <- []
  | Some path ->
      if t.pending <> [] then begin
        Hls_telemetry.count ~n:(List.length t.pending) "cache.wal_append";
        let oc =
          open_out_gen
            [ Open_append; Open_creat; Open_binary ]
            0o644 (wal_path path)
        in
        Fun.protect
          ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
          (fun () ->
            List.iter
              (fun (k, m) ->
                let line =
                  Dse_json.to_string (Codec.encode wal_entry (k, m)) ^ "\n"
                in
                output_string oc (Hls_util.Faults.on_write line))
              (List.rev t.pending);
            fsync_out oc);
        t.pending <- []
      end

let flush t =
  match t.path with
  | None -> ()
  | Some path ->
      (* Entries not yet journaled must hit the disk before the store
         rewrite: if the rewrite dies partway they are still replayable. *)
      journal t;
      if t.dirty then begin
        let tmp = tmp_path path in
        (* A stale .tmp from an earlier crash must not survive a
           successful flush. *)
        if Sys.file_exists tmp then (try Sys.remove tmp with Sys_error _ -> ());
        let oc = open_out_bin tmp in
        let renamed = ref false in
        Fun.protect
          ~finally:(fun () ->
            (try close_out oc with Sys_error _ -> ());
            if not !renamed then
              try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            output_string oc
              (Hls_util.Faults.on_write
                 (Dse_json.to_string ~indent:true (to_json t) ^ "\n"));
            (* fsync before the rename: the atomic swap must never
               install a file whose bytes are still in flight. *)
            fsync_out oc;
            close_out oc;
            Hls_util.Faults.before_rename ();
            Sys.rename tmp path;
            renamed := true);
        (* The journal is now compacted into the store; replay would be a
           harmless no-op, but drop it so it cannot grow unboundedly. *)
        (try Sys.remove (wal_path path) with Sys_error _ -> ());
        t.dirty <- false
      end

let release t =
  if not t.released then begin
    t.released <- true;
    match t.lock_path with
    | Some lp -> ( try Sys.remove lp with Sys_error _ -> ())
    | None -> ()
  end

let close t =
  Fun.protect ~finally:(fun () -> release t) (fun () -> flush t)
