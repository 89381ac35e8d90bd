module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)
module E = Hls_core.Experiments
module Benchmarks = Hls_workloads.Benchmarks
module Adpcm = Hls_workloads.Adpcm

let test_benchmark_shapes () =
  let check name g adds muls =
    let count k =
      Hls_dfg.Graph.fold_nodes
        (fun acc n -> if n.Hls_dfg.Types.kind = k then acc + 1 else acc)
        0 g
    in
    Alcotest.(check int) (name ^ " add+sub") adds
      (count Hls_dfg.Types.Add + count Hls_dfg.Types.Sub);
    Alcotest.(check int) (name ^ " mul") muls (count Hls_dfg.Types.Mul)
  in
  (* The canonical UCI operation mixes. *)
  check "elliptic" (Benchmarks.elliptic ()) 26 8;
  check "diffeq" (Benchmarks.diffeq ()) 4 6;
  check "fir2" (Benchmarks.fir2 ()) 2 3;
  check "iir4" (Benchmarks.iir4 ()) 8 10

let test_benchmarks_validate () =
  let check (name, g) =
    match Hls_dfg.Graph.validate_result g with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s invalid: %s" name m
  in
  List.iter check
    (List.map (fun (n, g, _) -> (n, g)) (Benchmarks.table2_set ())
    @ List.map (fun (n, g, _) -> (n, g)) (Adpcm.table3_set ()))

let test_diffeq_semantics () =
  (* Euler step: y1 = y + u*dx at 16-bit wrap-around. *)
  let g = Benchmarks.diffeq () in
  let mk v = Hls_bitvec.of_int ~width:16 v in
  let out =
    Hls_sim.outputs g
      ~inputs:
        [ ("x", mk 5); ("y", mk 100); ("u", mk 7); ("dx", mk 3); ("a", mk 50) ]
  in
  Alcotest.(check int) "x1 = x + dx" 8
    (Hls_bitvec.to_signed_int (List.assoc "x1" out));
  Alcotest.(check int) "y1 = y + u dx" 121
    (Hls_bitvec.to_signed_int (List.assoc "y1" out));
  (* u1 = u - 3xu dx - 3y dx = 7 - 315 - 900 *)
  Alcotest.(check int) "u1" (7 - (3 * 5 * 7 * 3) - (3 * 100 * 3))
    (Hls_bitvec.to_signed_int (List.assoc "u1" out));
  Alcotest.(check int) "exit test" 1
    (Hls_bitvec.to_int (List.assoc "c" out))

let test_fir2_semantics () =
  let g = Benchmarks.fir2 () in
  let mk v = Hls_bitvec.of_int ~width:16 v in
  let out =
    Hls_sim.outputs g ~inputs:[ ("x0", mk 1); ("x1", mk 2); ("x2", mk (-1)) ]
  in
  (* y = 10240*1 + 16388*2 + (-6144)*(-1) mod 2^16, signed. *)
  let expected = (10240 + (16388 * 2) + 6144) land 0xFFFF in
  let expected =
    if expected >= 32768 then expected - 65536 else expected
  in
  Alcotest.(check int) "y" expected
    (Hls_bitvec.to_signed_int (List.assoc "y" out))

let test_table1_shape () =
  let t = E.table1 () in
  (* Latencies per the paper's Table I. *)
  Alcotest.(check int) "conventional λ" 3 t.E.t1_conventional.P.latency;
  Alcotest.(check int) "blc λ" 1 t.E.t1_blc.P.latency;
  Alcotest.(check int) "optimized λ" 3 t.E.t1_optimized.P.latency;
  (* Cycle lengths in δ: 16 / 18 / 6. *)
  Alcotest.(check int) "conventional 16δ" 16 t.E.t1_conventional.P.cycle_delta;
  Alcotest.(check int) "blc 18δ" 18 t.E.t1_blc.P.cycle_delta;
  Alcotest.(check int) "optimized 6δ" 6 t.E.t1_optimized.P.cycle_delta;
  (* Execution-time ordering: blc < optimized << conventional, with blc and
     optimized close (Table I: 9.57 vs 10.66 ns). *)
  Alcotest.(check bool) "ordering" true
    (t.E.t1_blc.P.execution_ns < t.E.t1_optimized.P.execution_ns
    && t.E.t1_optimized.P.execution_ns
       < t.E.t1_conventional.P.execution_ns /. 2.)

let test_fig3_shape () =
  let f = E.fig3 () in
  (* Fig. 3 h: 62 % cycle saving at λ=3 in the paper; ours is within the
     same band (>= 50 %). *)
  let saved =
    P.pct_saved ~original:f.E.f3_conventional.P.cycle_ns
      ~optimized:f.E.f3_optimized.P.cycle_ns
  in
  Alcotest.(check bool) (Printf.sprintf "cycle saved %.1f%% >= 45%%" saved)
    true (saved >= 45.);
  Alcotest.(check int) "conventional 8δ" 8 f.E.f3_conventional.P.cycle_delta;
  Alcotest.(check int) "optimized 3δ" 3 f.E.f3_optimized.P.cycle_delta

let test_table2_rows () =
  let rows = E.table2 () in
  Alcotest.(check int) "ten rows" 10 (List.length rows);
  List.iter
    (fun (r : E.bench_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s λ=%d equivalence" r.bench r.row_latency)
        true (r.equivalence = Ok ());
      Alcotest.(check bool)
        (Printf.sprintf "%s λ=%d cycle saved > 30%%" r.bench r.row_latency)
        true
        (r.cycle_saved_pct > 30.);
      Alcotest.(check bool) "at least as many fragments as kernel ops" true
        (r.fragments >= r.ops_optimized))
    rows;
  (* Paper: 67 % average saving; accept the same region. *)
  Alcotest.(check bool) "average saving >= 55%" true
    (E.average_cycle_saved rows >= 55.)

let test_table2_savings_grow_with_latency () =
  (* Within one benchmark, higher λ saves at least as much (Table II /
     Fig. 4 trend). *)
  let rows = E.table2 () in
  let elliptic =
    List.filter (fun r -> r.E.bench = "elliptic") rows
    |> List.sort (fun a b -> compare a.E.row_latency b.E.row_latency)
  in
  match elliptic with
  | [ l4; l6; l11 ] ->
      Alcotest.(check bool) "λ=11 beats λ=4" true
        (l11.E.cycle_saved_pct >= l4.E.cycle_saved_pct);
      Alcotest.(check bool) "λ=6 beats λ=4" true
        (l6.E.cycle_saved_pct >= l4.E.cycle_saved_pct -. 1e-9)
  | _ -> Alcotest.fail "expected elliptic at 3 latencies"

let test_table3_rows () =
  let rows = E.table3 () in
  Alcotest.(check int) "three modules" 3 (List.length rows);
  List.iter
    (fun (r : E.bench_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s equivalence" r.bench)
        true (r.equivalence = Ok ());
      Alcotest.(check bool)
        (Printf.sprintf "%s saves cycle" r.bench)
        true (r.cycle_saved_pct > 25.))
    rows

let test_fig4_diverges () =
  let pts = E.fig4 (Benchmarks.elliptic ()) in
  Alcotest.(check bool) "sweep covers 3..15" true (List.length pts >= 12);
  let last = Hls_util.List_ext.last pts in
  (* The curves stay apart and both fall monotonically; the original curve
     floors at the largest single-operation delay while the optimized one
     keeps shrinking, so the ratio stays wide (>= 5x) out to λ=15. *)
  Alcotest.(check bool) "optimized always below" true
    (List.for_all (fun p -> p.E.f4_optimized_ns < p.E.f4_original_ns) pts);
  let monotone proj =
    let rec go = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> proj b <= proj a +. 1e-9 && go rest
    in
    go pts
  in
  Alcotest.(check bool) "original non-increasing" true
    (monotone (fun p -> p.E.f4_original_ns));
  Alcotest.(check bool) "optimized non-increasing" true
    (monotone (fun p -> p.E.f4_optimized_ns));
  Alcotest.(check bool) "wide ratio at λ=15" true
    (last.E.f4_original_ns /. last.E.f4_optimized_ns >= 5.)

let test_free_floating_latency () =
  let g = Hls_workloads.Motivational.chain3 () in
  (* At the tightest op cycle (16δ), the chain needs 3 cycles. *)
  Alcotest.(check int) "chain3" 3 (P.free_floating_latency g);
  let g3 = Hls_workloads.Motivational.fig3 () in
  Alcotest.(check int) "fig3" 3 (P.free_floating_latency g3)

let test_table2_width_sensitivity () =
  (* The whole Table II flow at a different data width: nothing about the
     transformation is 16-bit specific. *)
  let rows = E.table2 ~width:12 () in
  List.iter
    (fun (r : E.bench_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s λ=%d @12bit equivalence" r.bench r.row_latency)
        true (r.equivalence = Ok ());
      Alcotest.(check bool)
        (Printf.sprintf "%s λ=%d @12bit saves cycle" r.bench r.row_latency)
        true
        (r.cycle_optimized_ns < r.cycle_original_ns))
    rows

let test_optimized_for_cycle () =
  let g = Benchmarks.elliptic () in
  (* Ask for a 3 ns period: the driver must pick a latency whose schedule
     meets it. *)
  (match P.optimized_for_cycle g ~target_ns:3.0 with
  | None -> Alcotest.fail "3 ns should be reachable"
  | Some (latency, opt) ->
      Alcotest.(check bool) "meets the target" true
        (opt.P.opt_report.P.cycle_ns <= 3.0 +. 1e-9);
      Alcotest.(check bool) "positive latency" true (latency >= 1);
      (* Minimality: one cycle fewer would miss the target. *)
      if latency > 1 then begin
        let fewer = optimized g ~latency:(latency - 1) in
        Alcotest.(check bool) "latency is minimal" true
          (fewer.P.opt_report.P.cycle_ns > 3.0)
      end);
  (* An impossible target (below the sequential overhead). *)
  Alcotest.(check bool) "0.3 ns impossible" true
    (P.optimized_for_cycle g ~target_ns:0.3 = None)

let test_optimized_unconsecutive_possible () =
  (* The paper's unique capability: at least one benchmark schedule places
     fragments of one operation in non-consecutive cycles. *)
  let any =
    List.exists
      (fun (_, g, latencies) ->
        List.exists
          (fun latency ->
            let opt = optimized g ~latency in
            Hls_sched.Frag_sched.has_unconsecutive_execution opt.P.schedule)
          latencies)
      (Benchmarks.table2_set ())
  in
  Alcotest.(check bool) "some unconsecutive execution observed" true any

let suite =
  [
    Alcotest.test_case "benchmark op mixes" `Quick test_benchmark_shapes;
    Alcotest.test_case "benchmarks validate" `Quick test_benchmarks_validate;
    Alcotest.test_case "diffeq semantics" `Quick test_diffeq_semantics;
    Alcotest.test_case "fir2 semantics" `Quick test_fir2_semantics;
    Alcotest.test_case "Table I shape" `Quick test_table1_shape;
    Alcotest.test_case "Fig 3 shape" `Quick test_fig3_shape;
    Alcotest.test_case "Table II rows" `Slow test_table2_rows;
    Alcotest.test_case "Table II: savings grow with λ" `Slow
      test_table2_savings_grow_with_latency;
    Alcotest.test_case "Table III rows" `Quick test_table3_rows;
    Alcotest.test_case "Fig 4 diverges" `Slow test_fig4_diverges;
    Alcotest.test_case "free-floating latency" `Quick test_free_floating_latency;
    Alcotest.test_case "Table II at 12 bits" `Slow
      test_table2_width_sensitivity;
    Alcotest.test_case "optimized for cycle (dual)" `Quick
      test_optimized_for_cycle;
    Alcotest.test_case "unconsecutive execution" `Slow
      test_optimized_unconsecutive_possible;
  ]
