(* One benchmark run: set-up (timed several times, median reported),
   a closed-loop timed phase in batches, the correctness gate, and with
   tracing on a replay of a fixed, seed-determined list of ops that
   yields the per-layer metrics.  Every time reported is scaled to host
   speed 1 by the speed measured around it (Calib). *)

module R = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Client = Hls_server.Client
module W = Workload
module T = Tracer

type config = {
  workload : W.name;
  seed : int;
  seconds : float;
  trace : bool;
  hlsopt : string;  (** the built hlsopt binary, for serve *)
  dir : string;  (** sockets, logs and trace files *)
}

let now = Unix.gettimeofday
let setups = 5
let max_setups = 25
let setup_budget_s = 1.0

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear-interpolation percentile, [p] in 0..100. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let r = p /. 100. *. float_of_int (n - 1) in
      let i = int_of_float r in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let geomean = function
  | [] -> 0.
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
           /. float_of_int (List.length xs))

(* Peak resident set of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status"
      (match pid with None -> "self" | Some p -> string_of_int p) in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Executing ops.                                                        *)

let answer_of_result = function
  | Ok p -> (
      match Replay.answer_of_payload p with
      | Some a -> Ok a
      | None -> Error "unexpected payload")
  | Error e -> Error (Resp.error_message e)

(* The spec part of a request, as a key. *)
let spec_key req =
  match R.spec_of req with
  | Some (R.Builtin n) -> n
  | Some (R.Source src) -> Digest.to_hex (Digest.string src)
  | Some (R.File f) -> f
  | None -> ""

(* In-process executors.  Sweep ops get a fresh executor each, so the
   sweep cache can never answer a point.  Cold ops get one per design:
   its report and emit share the prepared prefix, nothing else does, and
   the prefix memo does not grow over the run.  Iterate ops (and the
   serve ops replayed in-process) share one executor and its memo. *)
type runner = {
  run : R.t -> (Resp.payload, Resp.error) result;
  close : unit -> unit;
}

let runner w =
  let cur = ref None and fresh = ref 0 in
  let close () = Option.iter (fun (_, e) -> Exec.close e) !cur in
  let exec_for req =
    let key =
      match w with
      | W.Sweep -> incr fresh; string_of_int !fresh
      | W.Cold -> spec_key req
      | W.Iterate | W.Serve -> ""
    in
    match !cur with
    | Some (k, e) when k = key -> e
    | _ ->
        close ();
        let e = Exec.create ~timing_workers:1 () in
        cur := Some (key, e);
        e
  in
  { run = (fun req -> Exec.run (exec_for req) req); close }

let encode ~id req = Hls_dse.Dse_json.to_string (R.to_json ~id req)

(* A response line must decode and answer the request it was sent for. *)
let remote_answer ~id line =
  match Resp.of_string line with
  | Ok { Resp.id = Some id'; result } when id' = id -> answer_of_result result
  | Ok _ -> Error "response carries another request's id"
  | Error m -> Error ("undecodable response: " ^ m)

let roundtrip conn ~id req =
  Result.map_error (fun m -> "transport: " ^ m)
    (Client.raw_roundtrip conn (encode ~id req))

(* One timed op and what it answered. *)
type sample = {
  op : W.op;
  ms : float;
  answer : (Replay.answer, string) result;
}

(* A set-up workload: how one client issues an op (timed), and what to
   release at the end. *)
type session = {
  plan : W.plan;
  fleet : Fleet.t option;
  client : unit -> W.op -> sample;  (** a new client (connection) *)
  close : unit -> unit;
}

let time f =
  let t0 = now () in
  let r = f () in
  ((now () -. t0) *. 1e3, r)

(* Set-up: generate inputs, start the fleet and wait for ping, then run
   every warm-up request once (first-call initialisation, and for
   iterate and serve the prepared-prefix memo). *)
let setup cfg ~tag =
  let plan = W.plan cfg.workload ~seed:cfg.seed in
  match cfg.workload with
  | W.Serve ->
      let fleet = Fleet.start ~hlsopt:cfg.hlsopt ~dir:cfg.dir ~tag in
      let client () =
        let conn =
          match Client.connect fleet.Fleet.router_sock with
          | Ok c -> c
          | Error m -> failwith m
        in
        fun (op : W.op) ->
          let id = string_of_int op.id in
          let ms, line = time (fun () -> roundtrip conn ~id op.req) in
          (* decoded after the clock stops: latency is the round trip *)
          { op; ms; answer = Result.bind line (remote_answer ~id) }
      in
      let warm = client () in
      List.iteri
        (fun i req ->
          match (warm { W.id = -1 - i; kind = "warmup"; req }).answer with
          | Ok _ -> ()
          | Error m -> failwith ("warm-up failed: " ^ m))
        plan.W.warmup;
      { plan; fleet = Some fleet; client; close = (fun () -> Fleet.stop fleet) }
  | w ->
      let r = runner w in
      List.iter
        (fun req ->
          match r.run req with
          | Ok _ -> ()
          | Error e -> failwith ("warm-up failed: " ^ Resp.error_message e))
        plan.W.warmup;
      let client () (op : W.op) =
        let ms, res = time (fun () -> r.run op.req) in
        { op; ms; answer = answer_of_result res }
      in
      { plan; fleet = None; client; close = r.close }

(* The host speed the run's times are scaled by.  On serve the work runs
   in the daemon and the router, on whichever cores, so both cores are
   measured. *)
let host_speed cfg = Calib.speed ~cores:(match cfg.workload with W.Serve -> 2 | _ -> 1) ()

(* Set up at least [setups] times, and more (up to [max_setups]) until
   [setup_budget_s] seconds went into set-up, so a set-up of a few ms
   still gets a steady median; keep the last session, report the median,
   each set-up scaled by the host speed measured on either side of it. *)
let timed_setup cfg =
  let rec go i times spent before =
    let t0 = now () in
    let s = setup cfg ~tag:(string_of_int i) in
    let t = now () -. t0 in
    let after = host_speed cfg in
    let times = (t /. sqrt (before *. after)) :: times in
    let spent = spent +. t in
    if i + 1 < max_setups && (i + 1 < setups || spent < setup_budget_s) then begin
      s.close ();
      go (i + 1) times spent after
    end
    else (s, median times)
  in
  go 0 [] 0. (host_speed cfg)

(* One batch of the timed phase: [plan.slice] ops (whole rounds of the
   mix) shared out over the clients, and the host speed around it. *)
type batch = {
  samples : sample list;
  wall : float;  (** seconds from the batch's first op to its last answer *)
  speed : float;  (** geometric mean of the host speed before and after *)
}

(* The closed loop: [clients] clients each issue their next op as soon as
   the previous one answers, a batch at a time, until [seconds] have
   passed.  The host speed is measured between batches, while no op is
   in flight. *)
let timed_phase cfg s ~clients =
  let calls = List.init clients (fun _ -> s.client ()) in
  let deadline = now () +. cfg.seconds in
  let batch before =
    let left = ref s.plan.W.slice and lock = Mutex.create () in
    let take () =
      Mutex.protect lock (fun () ->
          if !left > 0 then begin
            decr left;
            Some (s.plan.W.next ())
          end
          else None)
    in
    let loop call () =
      let rec go acc = match take () with None -> acc | Some op -> go (call op :: acc) in
      go []
    in
    let t0 = now () in
    let samples =
      match calls with
      | [ call ] -> loop call ()
      | _ ->
          let out = Array.make clients [] in
          let threads =
            List.mapi (fun i call -> Thread.create (fun () -> out.(i) <- loop call ()) ()) calls
          in
          List.iter Thread.join threads;
          List.concat (Array.to_list out)
    in
    let wall = now () -. t0 in
    let after = host_speed cfg in
    ({ samples; wall; speed = sqrt (before *. after) }, after)
  in
  let rec go acc before =
    if acc <> [] && now () >= deadline then List.rev acc
    else
      let b, after = batch before in
      go (b :: acc) after
  in
  go [] (host_speed cfg)

(* Throughput: ops completed over the wall time of the timed phase, each
   batch's wall time taken at host speed 1. *)
let ops_per_s batches =
  let n = List.fold_left (fun acc b -> acc + List.length b.samples) 0 batches in
  float_of_int n /. List.fold_left (fun acc b -> acc +. (b.wall /. b.speed)) 0. batches

(* Op latencies at host speed 1. *)
let latencies batches =
  List.concat_map (fun b -> List.map (fun x -> x.ms /. b.speed) b.samples) batches

(* ------------------------------------------------------------------ *)
(* The correctness gate.                                                *)

type verdict = {
  failures : (W.op * string) list;
  points : ((string * int) * (float * int)) list;
      (** distinct design points answered: (spec, latency) ->
          (execution ns, total gates) *)
}

(* Check every sample against the replay of its request, one spec at a
   time (a fresh replay context per spec, so replayed prefixes are freed
   as the gate moves on). *)
let gate cfg samples =
  let by_spec = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = spec_key x.op.W.req in
      Hashtbl.replace by_spec k
        (x :: Option.value (Hashtbl.find_opt by_spec k) ~default:[]))
    samples;
  let points = Hashtbl.create 64 in
  let failures = ref [] in
  let check_spec spec xs =
    let ctx = Replay.create T.disarmed in
    let refs = Hashtbl.create 8 in
    let reference req =
      let key = encode ~id:"" req in
      match Hashtbl.find_opt refs key with
      | Some r -> r
      | None ->
          (* keep the answer and the replayed circuits, not the points *)
          let r =
            Result.map
              (fun (answer, pts) ->
                ( answer,
                  List.map
                    (fun (pt : Replay.point) ->
                      Hls_dse.Cache.metrics_of_report
                        pt.Replay.result.Hls_core.Pipeline.opt_report)
                    pts ))
              (Gate.reference ~seed:cfg.seed ctx req)
          in
          Hashtbl.replace refs key r;
          r
    in
    let add (m : Hls_dse.Cache.metrics) =
      Hashtbl.replace points (spec, m.Hls_dse.Cache.m_latency)
        (m.Hls_dse.Cache.m_execution_ns, m.Hls_dse.Cache.m_total_gates)
    in
    List.iter
      (fun x ->
        let verdict =
          match (x.answer, reference x.op.W.req) with
          | Error m, _ | Ok _, Error m -> Error m
          | Ok a, Ok (ra, _) when a <> ra ->
              Error "response differs from the replayed answer"
          | Ok a, Ok (_, replayed) ->
              (match a with
              | Replay.Points ps -> List.iter (fun (_, m) -> add m) ps
              | Replay.Reported r -> add r.Resp.r_optimized
              | Replay.Iterated _ -> List.iter add replayed
              | Replay.Text _ | Replay.Scheduled _ -> ());
              Ok ()
        in
        match verdict with
        | Ok () -> ()
        | Error m -> failures := (x.op, m) :: !failures)
      (List.rev xs)
  in
  Hashtbl.iter check_spec by_spec;
  {
    failures = List.sort (fun ((a : W.op), _) (b, _) -> compare a.W.id b.W.id) !failures;
    points = Hashtbl.fold (fun k v acc -> (k, v) :: acc) points [];
  }

(* ------------------------------------------------------------------ *)
(* The traced replay.                                                   *)

type trace_result = {
  layers : (string * float) list;  (** per-layer metrics, by name *)
  mismatches : (W.op * string) list;
  tracer : T.t;
}

let span_names =
  [ "workloads.load"; "speclang.elaborate"; "api.digest"; "xform.apply";
    "kernel.extract"; "timing.bitnet"; "timing.arrival"; "timing.critical";
    "fragment.mobility"; "fragment.apply"; "sched.frag"; "sched.conventional";
    "alloc.bind"; "check.equivalence"; "rtl.elaborate"; "rtl.emit";
    "iter.improve" ]

(* Replay the first batch (whole rounds of the mix) of a
   fresh stream with the same seed on a fresh executor and replay
   context, both warmed the way set-up warms them.  Every replayed answer must equal the executor's
   untraced answer (and on serve, the daemon's and the router's). *)
let traced cfg s =
  let plan = W.plan cfg.workload ~seed:cfg.seed in
  let exec = runner cfg.workload in
  let tr = T.create ~armed:false in
  let ctx = Replay.create tr in
  List.iter
    (fun req ->
      ignore (exec.run req);
      ignore (Replay.run ctx req))
    plan.W.warmup;
  let conns =
    Option.map
      (fun f ->
        let c sock = match Client.connect sock with Ok c -> c | Error m -> failwith m in
        (c f.Fleet.router_sock, c f.Fleet.daemon_sock))
      s.fleet
  in
  let before = host_speed cfg in
  tr.T.armed <- true;
  let ops = W.take plan.W.next plan.W.slice in
  let mismatches =
    List.filter_map
      (fun (op : W.op) ->
        T.set_op tr op.W.id;
        let id = string_of_int op.W.id in
        let direct = T.span tr "api.exec" (fun () -> exec.run op.W.req) in
        let expected = answer_of_result direct in
        let remote =
          match conns with
          | None -> []
          | Some (router, daemon) ->
              T.span tr "api.codec" (fun () ->
                  let line = encode ~id op.W.req in
                  ignore (R.of_string line);
                  let resp =
                    match direct with Ok p -> Resp.ok ~id p | Error e -> Resp.fail ~id e
                  in
                  ignore (Resp.of_string (Resp.to_string resp)));
              let over name conn =
                Result.bind
                  (T.span tr name (fun () -> roundtrip conn ~id op.W.req))
                  (remote_answer ~id)
              in
              [ over "server.roundtrip" daemon; over "router.roundtrip" router ]
        in
        let replayed =
          match T.span tr "op" (fun () -> Replay.run ctx op.W.req) with
          | answer, points ->
              (match cfg.workload with
              | W.Sweep -> Replay.explore_probe ctx op.W.req
              | W.Iterate -> List.iter (Replay.iterate_probe ctx) points
              | W.Cold | W.Serve -> ());
              (match op.W.req with
              | R.Report _ -> List.iter (Replay.count_verdict ctx) points
              | _ -> ());
              Ok answer
          | exception e -> Error (Printexc.to_string e)
        in
        match (expected, replayed) with
        | Ok a, Ok b when a = b && List.for_all (( = ) (Ok a)) remote -> None
        | Error m, _ | _, Error m -> Some (op, m)
        | Ok _, Ok _ -> Some (op, "replayed answer differs from the response"))
      ops
  in
  let speed = sqrt (before *. host_speed cfg) in
  Option.iter (fun (a, b) -> Client.close a; Client.close b) conns;
  exec.close ();
  let n = float_of_int (List.length ops) in
  let in_op sp = sp.T.parent >= 0 || sp.T.name = "op" in
  let self = T.self_times ~keep:in_op tr in
  let durations = T.durations tr in
  let total name = Option.value (Hashtbl.find_opt durations name) ~default:0. in
  let self_of name = Option.value (Hashtbl.find_opt self name) ~default:0. in
  (* ms per op at host speed 1, like the end-to-end times *)
  let per_op_ms x = x *. 1e3 /. n /. speed in
  let ratio a b = if b > 0. then a /. b else 0. in
  let layer_s = List.fold_left (fun acc nm -> acc +. self_of nm) 0. span_names in
  let loads = self_of "workloads.load" +. self_of "speclang.elaborate" in
  let dse_overhead =
    if total "dse.explore" > 0. then total "dse.explore" -. (layer_s -. loads) else 0.
  in
  let exec_s = total "api.exec" and codec_s = total "api.codec" in
  let server_rt = total "server.roundtrip" and router_rt = total "router.roundtrip" in
  let op_s = if router_rt > 0. then router_rt else exec_s in
  let count = T.counted tr in
  let layers =
    List.map (fun nm -> (nm ^ "_ms", per_op_ms (self_of nm))) span_names
    @ [
        ("xform.checks", count "xform.checks" /. n);
        ("xform.fired_ratio", ratio (count "xform.fired") (count "xform.entries"));
        ("timing.bits", count "timing.bits" /. n);
        ("fragment.fragments", count "fragment.fragments" /. n);
        ("alloc.registers", count "alloc.registers" /. n);
        ("dse.overhead_ms", per_op_ms dse_overhead);
        ("check.proved_ratio", ratio (count "check.proved") (count "check.runs"));
        ("rtl.bytes", count "rtl.bytes" /. n);
        ("iter.extract_ms", per_op_ms (total "iter.extract"));
        ("iter.rounds", count "iter.rounds" /. n);
        ("iter.accepted_ratio", ratio (count "iter.accepted") (count "iter.rounds"));
        ("timing.retime_incremental_ms", per_op_ms (total "timing.retime_incremental"));
        ("timing.retime_scratch_ms", per_op_ms (total "timing.retime_scratch"));
        ("timing.dirty_nodes", count "timing.dirty_nodes" /. n);
        ("api.exec_ms", per_op_ms exec_s);
        ("api.codec_ms", per_op_ms codec_s);
        ("server.hop_ms",
         if server_rt > 0. then per_op_ms (server_rt -. exec_s -. codec_s) else 0.);
        ("router.hop_ms", if router_rt > 0. then per_op_ms (router_rt -. server_rt) else 0.);
        ("trace.op_ms", per_op_ms op_s);
        ("trace.remainder_ms", per_op_ms (exec_s -. layer_s -. dse_overhead));
        ("trace.overhead_pct", 100. *. (ratio (total "op") exec_s -. 1.));
      ]
  in
  { layers; mismatches; tracer = tr }

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v) unit_)
         ms)
  ^ "}"

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_ms" then "ms"
  else if ends "_ratio" then "ratio"
  else if ends "_pct" then "%"
  else if ends "bytes" then "bytes"
  else "count"

(* The end-to-end metrics of a run, in BENCHMARK.json order. *)
let end_to_end ~setup_s ~ops_per_s ~ms ~points ~rss =
  [
    ("setup_s", "s", setup_s);
    ("ops_per_s", "1/s", ops_per_s);
    ("op_p50_ms", "ms", percentile 50. ms);
    ("op_p90_ms", "ms", percentile 90. ms);
    ("circuit_exec_ns", "ns", geomean (List.map fst points));
    ("circuit_area_gates", "gates", geomean (List.map (fun (_, g) -> float_of_int g) points));
    ("peak_rss_mb", "MB", rss);
  ]

let end_to_end_names =
  List.map (fun (n, _, _) -> n)
    (end_to_end ~setup_s:0. ~ops_per_s:0. ~ms:[] ~points:[] ~rss:0.)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* One run, end to end. *)
let run cfg =
  let s, setup_s = timed_setup cfg in
  Fun.protect ~finally:s.close (fun () ->
      let clients = match cfg.workload with W.Serve -> 2 | _ -> 1 in
      let batches = timed_phase cfg s ~clients in
      let samples = List.concat_map (fun b -> b.samples) batches in
      let wall = List.fold_left (fun acc b -> acc +. b.wall) 0. batches in
      let rss =
        peak_rss_mb (Option.map (fun f -> f.Fleet.daemon) s.fleet)
      in
      let tr = if cfg.trace then Some (traced cfg s) else None in
      let t_gate = now () in
      let v = gate cfg samples in
      let gate_s = now () -. t_gate in
      let ms = latencies batches in
      let n = List.length samples in
      let failed = List.length v.failures in
      List.iter
        (fun ((op : W.op), m) ->
          Printf.printf "FAILED op %d (%s): %s\n" op.W.id op.W.kind m)
        v.failures;
      let e2e =
        end_to_end ~setup_s ~ops_per_s:(ops_per_s batches) ~ms
          ~points:(List.map snd v.points) ~rss
      in
      let speeds = List.map (fun b -> b.speed) batches in
      Printf.printf
        "workload %s, seed %d: %d ops in %d batches, %.2f s, %d distinct design points checked in %.2f s\n"
        (W.to_string cfg.workload) cfg.seed n (List.length batches) wall
        (List.length v.points) gate_s;
      Printf.printf
        "host speed (kernel ms / %.2f): median %.3f, range %.3f..%.3f; times below are at speed 1\n"
        Calib.reference_ms (median speeds) (List.fold_left min infinity speeds)
        (List.fold_left max 0. speeds);
      List.iter (fun (nm, u, x) -> Printf.printf "  %-20s %14.4f %s\n" nm x u) e2e;
      Printf.printf "  %-20s %14.4f 1/s (unscaled, whole timed phase)\n" "ops_per_s"
        (float_of_int n /. wall);
      Printf.printf "  %-20s %14.4f ratio\n" "fail_ratio"
        (if n = 0 then 1. else float_of_int failed /. float_of_int n);
      if n >= 1000 then
        Printf.printf "  %-20s %14.4f ms\n" "op_p99_ms" (percentile 99. ms);
      let kinds = List.sort_uniq compare (List.map (fun x -> x.op.W.kind) samples) in
      List.iter
        (fun k ->
          let ks =
            List.concat_map
              (fun b ->
                List.filter_map
                  (fun x -> if x.op.W.kind = k then Some (x.ms /. b.speed) else None)
                  b.samples)
              batches
          in
          Printf.printf "  %-20s p50 %10.3f ms over %d ops\n" k (percentile 50. ks)
            (List.length ks))
        kinds;
      match tr with
      | None ->
          { correct = failed = 0 && n > 0; attempted = n; failed; metrics = e2e }
      | Some t ->
          List.iter
            (fun ((op : W.op), m) ->
              Printf.printf "TRACE MISMATCH op %d (%s): %s\n" op.W.id op.W.kind m)
            t.mismatches;
          let path =
            Filename.concat cfg.dir
              (Printf.sprintf "trace-%s-%d.json" (W.to_string cfg.workload) cfg.seed)
          in
          write_file path (T.to_json t.tracer);
          Printf.printf "spans written to %s\n" path;
          List.iter (fun (nm, x) -> Printf.printf "  %-30s %14.4f\n" nm x) t.layers;
          {
            correct = failed = 0 && n > 0 && t.mismatches = [];
            attempted = n;
            failed = failed + List.length t.mismatches;
            metrics = List.map (fun (nm, x) -> (nm, unit_of nm, x)) t.layers;
          })

let result_line o =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": %s}|}
    o.correct (max 1 o.attempted) o.failed (metrics_json o.metrics)
