open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Extract = Hls_kernel.Extract
module Sim = Hls_sim
module Bv = Hls_bitvec

let check_equiv ?(trials = 60) ~seed g =
  let lowered = Extract.run g in
  (match Hls_fuzz.Diff.sampled g lowered ~vectors:trials ~prng:(Hls_util.Prng.create ~seed) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "kernel extraction changed semantics: %s" m);
  Alcotest.(check bool) "kernel form" true (Extract.is_kernel_form lowered);
  lowered

(* A one-operation graph for each behavioural kind. *)
let unary_graph kind ~signed ~wa ~wr =
  let b = B.create ~name:"g" in
  let sd = if signed then Signed else Unsigned in
  let a = B.input b "a" ~width:wa ~signed:sd in
  B.output b "o" (B.node b kind ~width:wr ~signedness:sd [ a ]);
  B.finish b

let binary_graph kind ~signed ~wa ~wb ~wr =
  let b = B.create ~name:"g" in
  let sd = if signed then Signed else Unsigned in
  let a = B.input b "a" ~width:wa ~signed:sd in
  let c = B.input b "c" ~width:wb ~signed:sd in
  B.output b "o" (B.node b kind ~width:wr ~signedness:sd [ a; c ]);
  B.finish b

let test_sub_unsigned () = ignore (check_equiv ~seed:1 (binary_graph Sub ~signed:false ~wa:8 ~wb:8 ~wr:8))
let test_sub_signed () = ignore (check_equiv ~seed:2 (binary_graph Sub ~signed:true ~wa:8 ~wb:8 ~wr:8))
let test_sub_mixed_width () = ignore (check_equiv ~seed:3 (binary_graph Sub ~signed:false ~wa:8 ~wb:5 ~wr:9))
let test_neg () = ignore (check_equiv ~seed:4 (unary_graph Neg ~signed:true ~wa:8 ~wr:8))

let test_mul_unsigned () =
  let g = check_equiv ~seed:5 (binary_graph Mul ~signed:false ~wa:6 ~wb:4 ~wr:10) in
  (* n-1 = 3 accumulation additions for a 6x4 array multiplier. *)
  Alcotest.(check int) "adds" 3 (Graph.count_kind g Add);
  Alcotest.(check int) "partial product rows" 4 (Graph.count_kind g Gate)

let test_mul_unsigned_square () =
  ignore (check_equiv ~seed:6 (binary_graph Mul ~signed:false ~wa:8 ~wb:8 ~wr:16))

let test_mul_truncated () =
  ignore (check_equiv ~seed:7 (binary_graph Mul ~signed:false ~wa:8 ~wb:8 ~wr:8))

let test_mul_by_one_bit () =
  ignore (check_equiv ~seed:8 (binary_graph Mul ~signed:false ~wa:8 ~wb:1 ~wr:9))

let test_mul_signed () =
  ignore (check_equiv ~seed:9 (binary_graph Mul ~signed:true ~wa:8 ~wb:8 ~wr:16))

let test_mul_signed_asymmetric () =
  ignore (check_equiv ~seed:10 (binary_graph Mul ~signed:true ~wa:6 ~wb:9 ~wr:15))

let test_mul_signed_narrow () =
  ignore (check_equiv ~seed:11 (binary_graph Mul ~signed:true ~wa:2 ~wb:2 ~wr:4));
  ignore (check_equiv ~seed:12 (binary_graph Mul ~signed:true ~wa:1 ~wb:5 ~wr:6));
  ignore (check_equiv ~seed:13 (binary_graph Mul ~signed:true ~wa:5 ~wb:1 ~wr:6))

let test_comparisons () =
  List.iteri
    (fun i kind ->
      ignore (check_equiv ~seed:(20 + i) (binary_graph kind ~signed:false ~wa:7 ~wb:7 ~wr:1));
      ignore (check_equiv ~seed:(40 + i) (binary_graph kind ~signed:true ~wa:7 ~wb:7 ~wr:1)))
    [ Lt; Le; Gt; Ge; Eq; Neq ]

let test_comparison_mixed_width () =
  ignore (check_equiv ~seed:60 (binary_graph Lt ~signed:false ~wa:9 ~wb:4 ~wr:1));
  ignore (check_equiv ~seed:61 (binary_graph Ge ~signed:true ~wa:4 ~wb:9 ~wr:1))

let test_max_min () =
  ignore (check_equiv ~seed:62 (binary_graph Max ~signed:false ~wa:8 ~wb:8 ~wr:8));
  ignore (check_equiv ~seed:63 (binary_graph Min ~signed:false ~wa:8 ~wb:8 ~wr:8));
  ignore (check_equiv ~seed:64 (binary_graph Max ~signed:true ~wa:8 ~wb:8 ~wr:8));
  ignore (check_equiv ~seed:65 (binary_graph Min ~signed:true ~wa:8 ~wb:8 ~wr:8))

let test_add_untouched () =
  let g = binary_graph Add ~signed:false ~wa:8 ~wb:8 ~wr:8 in
  let lowered = Extract.run g in
  Alcotest.(check int) "still one node" 1 (Graph.node_count lowered);
  ignore (check_equiv ~seed:66 g)

let test_chain_composition () =
  (* diffeq-like mixed expression: (a*b - c) and a comparison. *)
  let b = B.create ~name:"mix" in
  let a = B.input b "a" ~width:6 ~signed:Signed in
  let c = B.input b "c" ~width:6 ~signed:Signed in
  let d = B.input b "d" ~width:12 ~signed:Signed in
  let p = B.mul b ~width:12 ~signedness:Signed a c in
  let s = B.sub b ~width:12 ~signedness:Signed p d in
  let cmp = B.lt b ~signedness:Signed s d in
  B.output b "s" s;
  B.output b "c_exit" cmp;
  ignore (check_equiv ~seed:67 ~trials:100 (B.finish b))

let test_dead_elimination () =
  let b = B.create ~name:"dead" in
  let a = B.input b "a" ~width:4 in
  let c = B.input b "c" ~width:4 in
  let live = B.add b ~width:4 a c in
  let _dead = B.mul b ~width:8 a c in
  B.output b "o" live;
  let g = Extract.run (B.finish b) in
  Alcotest.(check int) "only the live add survives" 1 (Graph.node_count g)

let test_fig3_untouched_shape () =
  (* A pure-addition spec is already kernel form; extraction must be the
     identity up to dead-code removal. *)
  let g = Hls_workloads.Motivational.fig3 () in
  let lowered = Extract.run g in
  Alcotest.(check int) "same node count" (Graph.node_count g)
    (Graph.node_count lowered);
  Alcotest.(check int) "critical path unchanged" 9
    (Hls_timing.Critical_path.critical_delta lowered)

(* Properties: random expression DAGs over all behavioural kinds are
   preserved by extraction. *)
let prop_random_dag_preserved =
  QCheck.Test.make ~name:"extraction preserves random DAGs" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 2 10))
    (fun (seed, size) ->
      let prng = Hls_util.Prng.create ~seed in
      let b = B.create ~name:"rand" in
      let fresh = ref 0 in
      let values = ref [] in
      let rand_width () = 1 + Hls_util.Prng.int prng 10 in
      let operand w_hint =
        if !values = [] || Hls_util.Prng.int prng 3 = 0 then begin
          incr fresh;
          B.input b (Printf.sprintf "x%d" !fresh) ~width:w_hint
        end
        else Hls_util.Prng.pick prng !values
      in
      for i = 0 to size - 1 do
        let w = rand_width () in
        let sd = if Hls_util.Prng.bool prng then Signed else Unsigned in
        let kind =
          Hls_util.Prng.pick prng
            [ Add; Sub; Mul; Lt; Le; Gt; Ge; Eq; Neq; Max; Min; Neg ]
        in
        let v =
          match kind with
          | Neg -> B.node b Neg ~width:w ~signedness:sd [ operand w ]
          | Lt | Le | Gt | Ge | Eq | Neq ->
              B.node b kind ~width:1 ~signedness:sd
                [ operand w; operand (rand_width ()) ]
          | Mul ->
              let a = operand w and c = operand (rand_width ()) in
              B.node b Mul
                ~width:(Hls_dfg.Operand.width a + Hls_dfg.Operand.width c)
                ~signedness:sd [ a; c ]
          | _ -> B.node b kind ~width:w ~signedness:sd [ operand w; operand w ]
        in
        ignore i;
        values := v :: !values
      done;
      List.iteri (fun i v -> B.output b (Printf.sprintf "o%d" i) v) !values;
      let g = B.finish b in
      let lowered = Extract.run g in
      Extract.is_kernel_form lowered
      && Hls_fuzz.Diff.sampled g lowered ~vectors:25
           ~prng:(Hls_util.Prng.create ~seed:(seed + 1))
         = Ok ())

let suite =
  [
    Alcotest.test_case "sub unsigned" `Quick test_sub_unsigned;
    Alcotest.test_case "sub signed" `Quick test_sub_signed;
    Alcotest.test_case "sub mixed width" `Quick test_sub_mixed_width;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "mul unsigned 6x4" `Quick test_mul_unsigned;
    Alcotest.test_case "mul unsigned 8x8" `Quick test_mul_unsigned_square;
    Alcotest.test_case "mul truncated" `Quick test_mul_truncated;
    Alcotest.test_case "mul by 1-bit" `Quick test_mul_by_one_bit;
    Alcotest.test_case "mul signed (Baugh-Wooley)" `Quick test_mul_signed;
    Alcotest.test_case "mul signed asymmetric" `Quick test_mul_signed_asymmetric;
    Alcotest.test_case "mul signed narrow" `Quick test_mul_signed_narrow;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "comparison mixed width" `Quick test_comparison_mixed_width;
    Alcotest.test_case "max/min" `Quick test_max_min;
    Alcotest.test_case "add untouched" `Quick test_add_untouched;
    Alcotest.test_case "chain composition" `Quick test_chain_composition;
    Alcotest.test_case "dead elimination" `Quick test_dead_elimination;
    Alcotest.test_case "fig3 shape preserved" `Quick test_fig3_untouched_shape;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_random_dag_preserved ]
