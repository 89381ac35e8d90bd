(* Workload-level tests: structural shape, reference semantics, and the
   full flow on the extra benchmarks. *)

module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)
module Extra = Hls_workloads.Extra
module Random_dfg = Hls_workloads.Random_dfg
module Bv = Hls_bitvec

let wrap16 v =
  let m = v land 0xFFFF in
  if m >= 32768 then m - 65536 else m

let test_ar_lattice_shape () =
  let g = Extra.ar_lattice () in
  Hls_dfg.Graph.validate g;
  Alcotest.(check int) "8 muls" 8 (Hls_dfg.Graph.count_kind g Hls_dfg.Types.Mul);
  Alcotest.(check int) "8 adds" 8 (Hls_dfg.Graph.count_kind g Hls_dfg.Types.Add)

let test_ar_lattice_semantics () =
  let g = Extra.ar_lattice () in
  let mk v = Bv.of_int ~width:16 v in
  let f_in = 100 and b1 = 7 and b2 = -3 and b3 = 11 and b4 = 2 in
  let out =
    Hls_sim.outputs g
      ~inputs:
        [ ("f_in", mk f_in); ("b1", mk b1); ("b2", mk b2); ("b3", mk b3);
          ("b4", mk b4) ]
  in
  (* Reference: the same lattice over wrapped 16-bit ints.  Coefficients
     are Q0 integers here, so products wrap too. *)
  let ks = [ 9216; -5120; 12288; -20480 ] in
  let f = ref f_in in
  let bouts = ref [] in
  List.iter2
    (fun k b_in ->
      let f' = wrap16 (!f + wrap16 (k * b_in)) in
      let b' = wrap16 (b_in + wrap16 (k * f')) in
      f := f';
      bouts := b' :: !bouts)
    ks [ b1; b2; b3; b4 ];
  Alcotest.(check int) "f_out" !f
    (Bv.to_signed_int (List.assoc "f_out" out));
  List.iteri
    (fun i expected ->
      Alcotest.(check int)
        (Printf.sprintf "b_out%d" (i + 1))
        expected
        (Bv.to_signed_int (List.assoc (Printf.sprintf "b_out%d" (i + 1)) out)))
    (List.rev !bouts)

let test_dct8_shape () =
  let g = Extra.dct8 () in
  Hls_dfg.Graph.validate g;
  Alcotest.(check int) "12 const muls" 12
    (Hls_dfg.Graph.count_kind g Hls_dfg.Types.Mul);
  Alcotest.(check int) "outputs" 8 (List.length g.Hls_dfg.Graph.outputs)

let test_dct8_dc_input () =
  (* A constant input vector concentrates into X0 = 8·x and zeroes the
     other stage-1 differences. *)
  let g = Extra.dct8 () in
  let mk v = Bv.of_int ~width:16 v in
  let inputs = List.init 8 (fun k -> (Printf.sprintf "x%d" k, mk 100)) in
  let out = Hls_sim.outputs g ~inputs in
  Alcotest.(check int) "X0 = 8x" 800 (Bv.to_signed_int (List.assoc "X0" out));
  Alcotest.(check int) "X4 = 0" 0 (Bv.to_signed_int (List.assoc "X4" out));
  Alcotest.(check int) "X1 = 0" 0 (Bv.to_signed_int (List.assoc "X1" out))

let test_extra_full_flow () =
  List.iter
    (fun (name, g, latencies) ->
      List.iter
        (fun latency ->
          let conv = P.conventional g ~latency in
          let opt = optimized g ~latency in
          (match P.check_optimized_equivalence ~trials:25 g opt with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s λ=%d: %s" name latency m);
          Alcotest.(check bool)
            (Printf.sprintf "%s λ=%d saves cycle" name latency)
            true
            (opt.P.opt_report.P.cycle_ns < conv.P.cycle_ns))
        latencies)
    (Extra.set ())

let test_extra_cycle_sim () =
  List.iter
    (fun (name, g, latencies) ->
      let latency = List.hd latencies in
      let opt = optimized g ~latency in
      let prng = Hls_util.Prng.create ~seed:77 in
      for _ = 1 to 10 do
        let inputs = Hls_sim.random_inputs g prng in
        let reference = Hls_sim.outputs g ~inputs in
        let run = Hls_rtl.Cycle_sim.run_fragment opt.P.schedule ~inputs in
        List.iter
          (fun (port, v) ->
            if
              not
                (Bv.equal v (List.assoc port run.Hls_rtl.Cycle_sim.fr_outputs))
            then Alcotest.failf "%s: output %s differs" name port)
          reference
      done)
    (Extra.set ())

let test_random_profiles () =
  (* The generator respects its profile knobs. *)
  let count kind g = Hls_dfg.Graph.count_kind g kind in
  let additive =
    Random_dfg.generate ~profile:Random_dfg.additive_profile ~seed:3 ()
  in
  Alcotest.(check int) "no muls" 0 (count Hls_dfg.Types.Mul additive);
  let with_cmp =
    Random_dfg.generate
      ~profile:{ Random_dfg.default_profile with cmp_ratio = 2; ops = 30 }
      ~seed:3 ()
  in
  Alcotest.(check bool) "has comparisons" true
    (count Hls_dfg.Types.Lt with_cmp + count Hls_dfg.Types.Le with_cmp
     + count Hls_dfg.Types.Gt with_cmp
     + count Hls_dfg.Types.Ge with_cmp
     > 0)

let test_random_reproducible () =
  let a = Random_dfg.generate ~seed:11 () in
  let b = Random_dfg.generate ~seed:11 () in
  let prng = Hls_util.Prng.create ~seed:1 in
  Alcotest.(check int) "same node count" (Hls_dfg.Graph.node_count a)
    (Hls_dfg.Graph.node_count b);
  Alcotest.(check bool) "same function" true
    (Hls_fuzz.Diff.sampled a b ~vectors:10 ~prng = Ok ())

let test_chain_parametric () =
  (* The generalized motivational chain scales. *)
  let g = Hls_workloads.Motivational.chain ~width:8 ~ops:5 () in
  Alcotest.(check int) "5 ops" 5 (Hls_dfg.Graph.node_count g);
  Alcotest.(check int) "critical = 8 + 4" 12
    (Hls_timing.Critical_path.critical_delta g)

let test_adpcm_decoder_composed () =
  let g = Hls_workloads.Adpcm.decoder () in
  Hls_dfg.Graph.validate g;
  let latency = 6 in
  let opt = optimized g ~latency in
  (match P.check_optimized_equivalence ~trials:25 g opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "decoder equivalence: %s" m);
  (* The composed decoder runs through the gate-level netlist too. *)
  let nl = Hls_rtl.Elaborate_netlist.elaborate opt.P.schedule in
  let prng = Hls_util.Prng.create ~seed:55 in
  for _ = 1 to 5 do
    let inputs = Hls_sim.random_inputs g prng in
    let reference = Hls_sim.outputs g ~inputs in
    let got = Hls_rtl.Netlist.run nl ~cycles:latency ~inputs in
    List.iter
      (fun (port, v) ->
        if not (Bv.equal v (List.assoc port got)) then
          Alcotest.failf "decoder netlist: output %s differs" port)
      reference
  done

let test_stress_full_flow () =
  (* 100 mixed operations end to end, including the gate-level netlist. *)
  let g =
    Random_dfg.generate
      ~profile:
        { Random_dfg.default_profile with ops = 100; mul_ratio = 12 }
      ~seed:99 ()
  in
  let latency = 8 in
  let opt = optimized g ~latency in
  (match P.check_optimized_equivalence ~trials:10 g opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "stress equivalence: %s" m);
  (match Hls_sched.Frag_sched.verify opt.P.schedule with
  | Ok () -> ()
  | Error m -> Alcotest.failf "stress schedule: %s" m);
  let nl = Hls_rtl.Elaborate_netlist.elaborate opt.P.schedule in
  let prng = Hls_util.Prng.create ~seed:100 in
  for _ = 1 to 3 do
    let inputs = Hls_sim.random_inputs g prng in
    let reference = Hls_sim.outputs g ~inputs in
    let got = Hls_rtl.Netlist.run nl ~cycles:latency ~inputs in
    List.iter
      (fun (port, v) ->
        if not (Bv.equal v (List.assoc port got)) then
          Alcotest.failf "stress netlist: output %s differs" port)
      reference
  done

let suite =
  [
    Alcotest.test_case "ar_lattice shape" `Quick test_ar_lattice_shape;
    Alcotest.test_case "ar_lattice semantics" `Quick test_ar_lattice_semantics;
    Alcotest.test_case "dct8 shape" `Quick test_dct8_shape;
    Alcotest.test_case "dct8 dc input" `Quick test_dct8_dc_input;
    Alcotest.test_case "extra benches full flow" `Slow test_extra_full_flow;
    Alcotest.test_case "extra benches cycle sim" `Slow test_extra_cycle_sim;
    Alcotest.test_case "random profiles" `Quick test_random_profiles;
    Alcotest.test_case "random reproducible" `Quick test_random_reproducible;
    Alcotest.test_case "parametric chain" `Quick test_chain_parametric;
    Alcotest.test_case "adpcm decoder composed" `Quick
      test_adpcm_decoder_composed;
    Alcotest.test_case "stress: 100 ops end to end" `Slow test_stress_full_flow;
  ]
