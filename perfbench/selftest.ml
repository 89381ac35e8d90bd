(* The benchmark's own tests, on a small seed for every workload:

   - the ops a session answers pass the correctness gate;
   - the traced replay equals the untraced response;
   - the gate rejects a planted wrong answer (one bit flipped in a
     response) and a netlist output with one bit flipped;
   - the work counts of the traced run repeat exactly on a second run
     with the same seed;
   - the metric names the benchmark prints are exactly the ones
     BENCHMARK.json and layers.json declare.

   Run with `dune build @perfbench/selftest`. *)

open Perfbench
module W = Workload
module R = Hls_api.Request
module Resp = Hls_api.Response
module J = Hls_dse.Dse_json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let seed = 3

(* One bit flipped in what a response says. *)
let flip (a : Replay.answer) : Replay.answer =
  let m (x : Hls_dse.Cache.metrics) =
    { x with Hls_dse.Cache.m_total_gates = x.Hls_dse.Cache.m_total_gates lxor 1 }
  in
  match a with
  | Replay.Points ((l, x) :: rest) -> Replay.Points ((l, m x) :: rest)
  | Replay.Points [] -> a
  | Replay.Reported r -> Replay.Reported { r with Resp.r_optimized = m r.Resp.r_optimized }
  | Replay.Text d ->
      let b = Bytes.of_string d in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Replay.Text (Bytes.to_string b)
  | Replay.Scheduled (l, d, p) -> Replay.Scheduled (l lxor 1, d, p)
  | Replay.Iterated it ->
      Replay.Iterated { it with Resp.it_final_latency = it.Resp.it_final_latency lxor 1 }

let is_count (name, _) =
  not (List.exists (Filename.check_suffix name) [ "_ms"; "_pct" ])

let workload cfg =
  let name = W.to_string cfg.Bench.workload in
  let s = Bench.setup cfg ~tag:"selftest" in
  Fun.protect ~finally:s.Bench.close (fun () ->
      let call = s.Bench.client () in
      let samples = List.map call (W.take s.Bench.plan.W.next 4) in
      let v = Bench.gate cfg samples in
      check (name ^ ": answers pass the gate") (v.Bench.failures = [] && v.Bench.points <> []);
      let planted = List.map (fun x -> { x with Bench.answer = Result.map flip x.Bench.answer }) samples in
      let pv = Bench.gate cfg planted in
      check (name ^ ": every planted wrong answer is rejected")
        (List.length pv.Bench.failures = List.length samples);
      let t1 = Bench.traced cfg s in
      check (name ^ ": traced replay equals the untraced response") (t1.Bench.mismatches = []);
      let t2 = Bench.traced cfg s in
      check (name ^ ": work counts repeat exactly")
        (List.filter is_count t1.Bench.layers = List.filter is_count t2.Bench.layers);
      List.map fst t1.Bench.layers)

(* The netlist check must catch one flipped output bit. *)
let netlist_gate () =
  let plan = W.plan W.Cold ~seed in
  let emit = (List.nth (W.take plan.W.next 2) 1).W.req in
  let ctx = Replay.create Tracer.disarmed in
  match Gate.reference ~seed ctx emit with
  | Error m -> check ("cold emit replay passes the gate: " ^ m) false
  | Ok (_, pts) ->
      let pt = List.hd pts in
      let nl = Option.get pt.Replay.netlist in
      let inputs = Hls_sim.random_inputs pt.Replay.source (Hls_util.Prng.create ~seed) in
      let reference = Hls_sim.outputs pt.Replay.source ~inputs in
      let latency = pt.Replay.result.Hls_core.Pipeline.schedule.Hls_sched.Frag_sched.latency in
      let got = Hls_rtl.Netlist.run nl ~cycles:latency ~inputs in
      let flipped =
        match got with
        | (port, v) :: rest ->
            let w = Hls_bitvec.width v in
            (port, Hls_bitvec.logxor v (Hls_bitvec.of_int ~width:w 1)) :: rest
        | [] -> []
      in
      check "netlist outputs agree with Hls_sim" (Gate.outputs_agree ~reference ~got = Ok ());
      check "a flipped netlist output bit is rejected"
        (Result.is_error (Gate.outputs_agree ~reference ~got:flipped))

let names_of path key =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.of_string text with
  | Error m -> failwith (path ^ ": " ^ m)
  | Ok j -> (
      match Option.bind (J.member key j) J.to_list with
      | Some l ->
          List.filter_map (fun e -> Option.bind (J.member "name" e) J.to_str) l
      | None -> (
          match Option.bind (J.member key j) (function J.Obj kv -> Some kv | _ -> None) with
          | Some kv -> List.map fst kv
          | None -> failwith (path ^ ": no " ^ key)))

let () =
  let hlsopt = ref "_build/default/bin/hlsopt.exe" in
  let benchmark = ref "BENCHMARK.json" and layers = ref "perfbench/layers.json" in
  Arg.parse
    [ ("--hlsopt", Arg.Set_string hlsopt, "PATH the hlsopt binary");
      ("--benchmark", Arg.Set_string benchmark, "PATH BENCHMARK.json");
      ("--layers", Arg.Set_string layers, "PATH perfbench/layers.json") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "selftest.exe [--hlsopt PATH] [--benchmark PATH] [--layers PATH]";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let cfg w =
    { Bench.workload = w; seed; seconds = 1.; trace = true; hlsopt = !hlsopt; dir }
  in
  let layer_names = List.map (fun (_, w) -> workload (cfg w)) W.names in
  netlist_gate ();
  let declared = names_of !benchmark "per_layer" in
  let mapped = names_of !layers "layers" in
  List.iter
    (fun names ->
      check "per-layer names match BENCHMARK.json" (List.sort compare names = List.sort compare declared))
    layer_names;
  check "layers.json maps every per-layer metric" (List.sort compare mapped = List.sort compare declared);
  check "end-to-end names match BENCHMARK.json"
    (List.sort compare (names_of !benchmark "end_to_end")
     = List.sort compare Bench.end_to_end_names);
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
