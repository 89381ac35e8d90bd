(* Optimization passes: constant folding, CSE, DCE — each preserves
   semantics (checked with the dedicated equivalence library) and actually
   shrinks the crafted graphs it should shrink. *)

open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Cleanup = Hls_xform.Cleanup
module Rewrite = Hls_dfg.Rewrite
module Check = Hls_check
module Bv = Hls_bitvec

let check_equiv name a b =
  let v = Check.equivalent a b in
  if not (Check.ok v) then
    Alcotest.failf "%s changed semantics: %a" name Check.pp_verdict v

(* --- folding --- *)

let test_fold_constants () =
  let b = B.create ~name:"fold" in
  let a = B.input b "a" ~width:8 in
  let c5 = Hls_dfg.Operand.of_const (Bv.of_int ~width:8 5) in
  let c7 = Hls_dfg.Operand.of_const (Bv.of_int ~width:8 7) in
  let sum = B.add b ~width:8 c5 c7 in
  let total = B.add b ~width:8 a sum in
  B.output b "o" total;
  let g = B.finish b in
  let folded = Cleanup.fold g in
  check_equiv "fold" g folded;
  (* 5+7 disappears: one node left. *)
  Alcotest.(check int) "one node" 1 (Graph.node_count (Rewrite.prune folded))

let test_fold_identities () =
  let b = B.create ~name:"ids" in
  let a = B.input b "a" ~width:8 in
  let zero = Hls_dfg.Operand.of_const (Bv.zero 8) in
  let one = Hls_dfg.Operand.of_const (Bv.of_int ~width:8 1) in
  let x1 = B.add b ~width:8 a zero in
  let x2 = B.sub b ~width:8 x1 zero in
  let x3 = B.mul b ~width:8 x2 one in
  B.output b "o" x3;
  let g = B.finish b in
  let folded = Rewrite.prune (Cleanup.fold g) in
  check_equiv "identities" g folded;
  Alcotest.(check bool) "only wires remain" true
    (Graph.behavioural_op_count folded = 0)

let test_fold_mux_const_select () =
  let b = B.create ~name:"muxsel" in
  let a = B.input b "a" ~width:4 in
  let c = B.input b "c" ~width:4 in
  let sel = Hls_dfg.Operand.of_const (Bv.ones 1) in
  let m = B.node b Mux ~width:4 [ sel; a; c ] in
  B.output b "o" m;
  let g = B.finish b in
  let folded = Rewrite.prune (Cleanup.fold g) in
  check_equiv "mux" g folded;
  Alcotest.(check int) "mux gone" 0 (Graph.count_kind folded Mux)

let test_fold_mul_zero () =
  let b = B.create ~name:"mz" in
  let a = B.input b "a" ~width:8 in
  let z = Hls_dfg.Operand.of_const (Bv.zero 8) in
  let p = B.mul b ~width:16 a z in
  let s = B.add b ~width:16 p a in
  B.output b "o" s;
  let g = B.finish b in
  let folded = Rewrite.prune (Cleanup.fold g) in
  check_equiv "mul-zero" g folded;
  Alcotest.(check int) "mul gone" 0 (Graph.count_kind folded Mul)

(* --- CSE --- *)

let test_cse_shares () =
  let b = B.create ~name:"cse" in
  let a = B.input b "a" ~width:8 in
  let c = B.input b "c" ~width:8 in
  let s1 = B.add b ~width:8 a c in
  let s2 = B.add b ~width:8 a c in
  let d = B.add b ~width:8 s1 s2 in
  B.output b "o" d;
  let g = B.finish b in
  let shared = Rewrite.prune (Cleanup.cse g) in
  check_equiv "cse" g shared;
  Alcotest.(check int) "two adds left" 2 (Graph.count_kind shared Add)

let test_cse_distinguishes () =
  (* Same shape, different widths/signedness/slices must NOT merge. *)
  let b = B.create ~name:"nocse" in
  let a = B.input b "a" ~width:8 in
  let c = B.input b "c" ~width:8 in
  let s1 = B.add b ~width:8 a c in
  let s2 = B.add b ~width:9 a c in
  let lo = Hls_dfg.Operand.reslice s2 ~hi:7 ~lo:0 in
  let d = B.add b ~width:8 s1 lo in
  B.output b "o" d;
  let g = B.finish b in
  let shared = Rewrite.prune (Cleanup.cse g) in
  check_equiv "no-cse" g shared;
  Alcotest.(check int) "three adds kept" 3 (Graph.count_kind shared Add)

(* --- DCE --- *)

let test_dce () =
  let b = B.create ~name:"dce" in
  let a = B.input b "a" ~width:8 in
  let c = B.input b "c" ~width:8 in
  let live = B.add b ~width:8 a c in
  let _dead1 = B.mul b ~width:16 a c in
  let _dead2 = B.sub b ~width:8 a c in
  B.output b "o" live;
  let g = B.finish b in
  let clean = Rewrite.prune g in
  Alcotest.(check int) "two dead" 2
    (Graph.node_count g - Graph.node_count clean);
  check_equiv "dce" g clean;
  Alcotest.(check int) "one node" 1 (Graph.node_count clean)

(* --- composition --- *)

let test_normalize_fixed_point () =
  (* A graph where folding exposes sharing which exposes death. *)
  let b = B.create ~name:"norm" in
  let a = B.input b "a" ~width:8 in
  let zero = Hls_dfg.Operand.of_const (Bv.zero 8) in
  let x1 = B.add b ~width:8 a zero in
  (* folds to a *)
  let x2 = B.add b ~width:8 a zero in
  (* folds to a: x1 = x2 *)
  let s1 = B.add b ~width:8 x1 a in
  let s2 = B.add b ~width:8 x2 a in
  (* CSE merges s1/s2 after folding *)
  let d = B.node b Xor ~width:8 [ s1; s2 ] in
  (* x ^ x: stays, but only one add feeds it *)
  B.output b "o" d;
  let g = B.finish b in
  let n = Cleanup.normalize g in
  check_equiv "normalize" g n;
  Alcotest.(check int) "one add survives" 1 (Graph.count_kind n Add)

let test_normalize_on_kernel_graphs () =
  List.iter
    (fun (name, g) ->
      let kernel = Hls_kernel.Extract.run g in
      let n = Cleanup.normalize kernel in
      (match Hls_fuzz.Diff.sampled g n ~vectors:30
               ~prng:(Hls_util.Prng.create ~seed:7) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m);
      Alcotest.(check bool)
        (Printf.sprintf "%s does not grow" name)
        true
        (Graph.node_count n <= Graph.node_count kernel))
    [
      ("fir2", Hls_workloads.Benchmarks.fir2 ());
      ("diffeq", Hls_workloads.Benchmarks.diffeq ());
      ("iaq", Hls_workloads.Adpcm.iaq ());
    ]

(* --- the check library itself --- *)

let test_check_exhaustive_small () =
  let g = Hls_workloads.Motivational.chain ~width:2 ~ops:2 () in
  Alcotest.(check bool) "proved vs self" true
    (Check.exhaustive g g = Check.Proved)

let test_check_exhaustive_rejects_big () =
  let g = Hls_workloads.Motivational.chain3 () in
  Alcotest.(check bool) "raises over budget" true
    (match Check.exhaustive g g with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_check_finds_difference () =
  let mk sub =
    let b = B.create ~name:"d" in
    let a = B.input b "a" ~width:3 in
    let c = B.input b "c" ~width:3 in
    let r = if sub then B.sub b ~width:3 a c else B.add b ~width:3 a c in
    B.output b "o" r;
    B.finish b
  in
  match Check.exhaustive (mk false) (mk true) with
  | Check.Failed { port = "o"; _ } -> ()
  | v -> Alcotest.failf "expected a failure, got %a" Check.pp_verdict v

let test_check_corners_catch_carry_bug () =
  (* A "broken" adder that drops the carry into bit 3 differs from the real
     one exactly on carry-heavy vectors; all-ones is a corner. *)
  let good =
    let b = B.create ~name:"g" in
    let a = B.input b "a" ~width:4 in
    let c = B.input b "c" ~width:4 in
    B.output b "o" (B.add b ~width:4 a c);
    B.finish b
  in
  let bad =
    let b = B.create ~name:"g" in
    let a = B.input b "a" ~width:4 in
    let c = B.input b "c" ~width:4 in
    let lo =
      B.add b ~width:3
        (Hls_dfg.Operand.reslice a ~hi:2 ~lo:0)
        (Hls_dfg.Operand.reslice c ~hi:2 ~lo:0)
    in
    let hi =
      B.node b Xor ~width:1
        [ Hls_dfg.Operand.reslice a ~hi:3 ~lo:3;
          Hls_dfg.Operand.reslice c ~hi:3 ~lo:3 ]
    in
    B.output b "o" (B.node b Concat ~width:4 [ lo; hi ]);
    B.finish b
  in
  match Check.corners good bad with
  | Check.Failed _ -> ()
  | v -> Alcotest.failf "corners missed the carry bug: %a" Check.pp_verdict v

let prop_passes_preserve_semantics =
  QCheck.Test.make ~name:"fold/cse/dce preserve random DAGs" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      let n = Cleanup.normalize g in
      Hls_fuzz.Diff.sampled g n ~vectors:20
        ~prng:(Hls_util.Prng.create ~seed:(seed + 3))
      = Ok ())

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      let once = Cleanup.normalize g in
      let twice = Cleanup.normalize once in
      Graph.node_count once = Graph.node_count twice)

let suite =
  [
    Alcotest.test_case "fold constants" `Quick test_fold_constants;
    Alcotest.test_case "fold identities" `Quick test_fold_identities;
    Alcotest.test_case "fold mux const select" `Quick test_fold_mux_const_select;
    Alcotest.test_case "fold mul by zero" `Quick test_fold_mul_zero;
    Alcotest.test_case "cse shares" `Quick test_cse_shares;
    Alcotest.test_case "cse distinguishes" `Quick test_cse_distinguishes;
    Alcotest.test_case "dce" `Quick test_dce;
    Alcotest.test_case "normalize fixed point" `Quick test_normalize_fixed_point;
    Alcotest.test_case "normalize kernel graphs" `Quick
      test_normalize_on_kernel_graphs;
    Alcotest.test_case "check: exhaustive small" `Quick test_check_exhaustive_small;
    Alcotest.test_case "check: budget" `Quick test_check_exhaustive_rejects_big;
    Alcotest.test_case "check: finds difference" `Quick test_check_finds_difference;
    Alcotest.test_case "check: corners catch carry bug" `Quick
      test_check_corners_catch_carry_bug;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_passes_preserve_semantics; prop_normalize_idempotent ]
