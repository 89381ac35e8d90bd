(* Cross-cutting properties and coverage for corners the per-module suites
   don't exercise: CSD recoding, coarse-vs-exact timing agreement, kernel
   idempotence, pretty-printer smoke, techlib monotonicity. *)

module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Cp = Hls_timing.Critical_path
module Csd = Hls_util.Csd


(* The deprecated [Pipeline.optimized] wrapper collapsed into
   [Pipeline.run]; unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    Hls_core.Pipeline.run_graph
      (Hls_core.Pipeline.make_config ?lib ?policy ?balance ?transform ())
      g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- CSD --- *)

let prop_csd_reconstructs =
  QCheck.Test.make ~name:"CSD digits reconstruct the value" ~count:500
    QCheck.(int_range (-100000) 100000)
    (fun v -> Csd.value (Csd.digits v) = v)

let prop_csd_no_adjacent =
  QCheck.Test.make ~name:"CSD has no adjacent nonzero digits" ~count:500
    QCheck.(int_range 0 1000000)
    (fun v ->
      let ds = List.map fst (Csd.digits v) in
      let rec ok = function
        | a :: (b :: _ as rest) -> b > a + 1 && ok rest
        | _ -> true
      in
      ok ds)

let prop_csd_sparse =
  QCheck.Test.make ~name:"CSD digit count <= ceil((bits+1)/2)" ~count:500
    QCheck.(int_range 1 1000000)
    (fun v ->
      let bits = Hls_util.Int_math.bits_for_value v in
      Csd.digit_count v <= (bits + 2) / 2 + 1)

let test_csd_cases () =
  Alcotest.(check (list (pair int bool))) "7 = 8 - 1" [ (0, true); (3, false) ]
    (Csd.digits 7);
  Alcotest.(check (list (pair int bool))) "0" [] (Csd.digits 0);
  Alcotest.(check int) "-7 reconstructs" (-7) (Csd.value (Csd.digits (-7)));
  Alcotest.(check int) "3 has 2 digits" 2 (Csd.digit_count 3)

(* --- timing: coarse DP vs exact bit-level --- *)

(* On full-width addition chains (no slicing, no glue) the §3.2 coarse
   algorithm and the exact bit-level arrival agree. *)
let prop_coarse_matches_exact_on_chains =
  QCheck.Test.make ~name:"coarse = exact on full-width chains" ~count:200
    QCheck.(pair (int_range 1 8) (int_range 2 24))
    (fun (len, width) ->
      let b = B.create ~name:"chain" in
      let x = B.input b "x" ~width in
      let acc = ref x in
      for i = 1 to len do
        let y = B.input b (Printf.sprintf "y%d" i) ~width in
        acc := B.add b ~width !acc y
      done;
      B.output b "o" !acc;
      let g = B.finish b in
      Cp.coarse_delta g = Cp.critical_delta g
      && Cp.critical_delta g = width + len - 1)

(* Coarse is an upper bound... actually the exact model can only be larger
   when glue/sign-extension adds paths coarse ignores; on additive-only
   graphs with slicing the two still agree within the truncation rule. *)
let prop_coarse_vs_exact_bounded =
  QCheck.Test.make ~name:"coarse within [exact/2, 2*exact] on random adds"
    ~count:200
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g =
        Hls_workloads.Random_dfg.generate
          ~profile:Hls_workloads.Random_dfg.additive_profile ~seed ()
      in
      let coarse = Cp.coarse_delta g and exact = Cp.critical_delta g in
      coarse >= exact / 2 && coarse <= exact * 2)

(* --- kernel idempotence --- *)

let prop_kernel_idempotent =
  QCheck.Test.make ~name:"kernel extraction is idempotent" ~count:100
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      let k1 = Hls_kernel.Extract.run g in
      let k2 = Hls_kernel.Extract.run k1 in
      Graph.node_count k1 = Graph.node_count k2
      && Graph.behavioural_op_count k1 = Graph.behavioural_op_count k2
      && Hls_sim.equivalent k1 k2 ~trials:10
           ~prng:(Hls_util.Prng.create ~seed:(seed + 1))
         = Ok ())

(* --- pretty printers don't crash and carry key facts --- *)

let test_pp_smoke () =
  let g = Hls_workloads.Motivational.fig3 () in
  let s = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check bool) "graph pp mentions inputs" true (contains s "i1/6");
  let plan = Hls_fragment.Mobility.compute g ~latency:3 in
  let s = Format.asprintf "%a" Hls_fragment.Mobility.pp plan in
  Alcotest.(check bool) "plan pp mentions cycle" true (contains s "cycle 3 bits");
  let s = Format.asprintf "%a" Hls_techlib.pp Hls_techlib.default in
  Alcotest.(check bool) "techlib pp mentions delta" true (contains s "delta");
  let opt = optimized g ~latency:3 in
  let dp = opt.Hls_core.Pipeline.opt_report.Hls_core.Pipeline.datapath in
  let s = Format.asprintf "%a" Hls_alloc.Datapath.pp dp in
  Alcotest.(check bool) "datapath pp mentions latency" true
    (contains s "latency 3");
  let ctrl = Hls_rtl.Control.extract opt.Hls_core.Pipeline.schedule in
  let s = Format.asprintf "%a" Hls_rtl.Control.pp ctrl in
  Alcotest.(check bool) "control pp mentions states" true (contains s "state 1")

(* --- techlib monotonicity --- *)

let prop_techlib_monotone =
  QCheck.Test.make ~name:"wider components cost more" ~count:100
    QCheck.(pair (int_range 1 63) (int_range 1 63))
    (fun (w1, w2) ->
      let lib = Hls_techlib.default in
      let lo = min w1 w2 and hi = max w1 w2 in
      Hls_techlib.adder_gates lib ~width:lo
      <= Hls_techlib.adder_gates lib ~width:hi
      && Hls_techlib.register_gates lib ~width:lo
         <= Hls_techlib.register_gates lib ~width:hi
      && Hls_techlib.mux_gates lib ~inputs:3 ~width:lo
         <= Hls_techlib.mux_gates lib ~inputs:3 ~width:hi
      && Hls_techlib.adder_delay_delta lib ~width:lo
         <= Hls_techlib.adder_delay_delta lib ~width:hi)

(* --- estimate duality --- *)

let prop_cycle_latency_duality =
  QCheck.Test.make ~name:"cycle/latency estimates are dual" ~count:200
    QCheck.(pair (int_range 1 200) (int_range 1 20))
    (fun (critical, latency) ->
      let n = Cp.cycle_delta_for_latency ~critical ~latency in
      (* n cycles of that budget always cover the critical path... *)
      n * latency >= critical
      (* ...and the dual latency never exceeds the requested one. *)
      && Cp.latency_for_cycle_delta ~critical ~n_bits:n <= latency)

(* --- simulator determinism --- *)

let prop_sim_deterministic =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:50
    QCheck.(int_range 0 2000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      let inputs =
        Hls_sim.random_inputs g (Hls_util.Prng.create ~seed:(seed + 2))
      in
      Hls_sim.outputs g ~inputs = Hls_sim.outputs g ~inputs)

let suite =
  [
    Alcotest.test_case "csd cases" `Quick test_csd_cases;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_csd_reconstructs;
        prop_csd_no_adjacent;
        prop_csd_sparse;
        prop_coarse_matches_exact_on_chains;
        prop_coarse_vs_exact_bounded;
        prop_kernel_idempotent;
        prop_techlib_monotone;
        prop_cycle_latency_duality;
        prop_sim_deterministic;
      ]
