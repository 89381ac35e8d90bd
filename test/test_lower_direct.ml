(* Direct tests of the individual kernel lowerings (beyond the graph-level
   extraction tests): each constructor is exercised on its own wrapped in a
   minimal graph. *)

open Hls_dfg.Types
module B = Hls_dfg.Builder
module Lower = Hls_kernel.Lower
module Bv = Hls_bitvec

(* Build a two-input graph around one lowering and evaluate it. *)
let eval2 ~wa ~wb ~signed build (va, vb) =
  let b = B.create ~name:"direct" in
  let sd = if signed then Signed else Unsigned in
  let a = B.input b "a" ~width:wa ~signed:sd in
  let c = B.input b "c" ~width:wb ~signed:sd in
  let ctx = { Hls_dfg.Rewrite.b; map = [||] } in
  let result = build ctx a c in
  B.output b "o" result;
  let g = B.finish b in
  let out =
    Hls_sim.outputs g
      ~inputs:[ ("a", Bv.of_int ~width:wa va); ("c", Bv.of_int ~width:wb vb) ]
  in
  List.assoc "o" out

let test_array_multiply_direct () =
  List.iter
    (fun (va, vb) ->
      let r =
        eval2 ~wa:7 ~wb:5 ~signed:false
          (fun ctx a c -> Lower.array_multiply ctx a c)
          (va, vb)
      in
      Alcotest.(check int) (Printf.sprintf "%d*%d" va vb) (va * vb)
        (Bv.to_int r))
    [ (0, 0); (127, 31); (1, 31); (64, 16); (99, 21) ]

let test_baugh_wooley_direct () =
  List.iter
    (fun (va, vb) ->
      let r =
        eval2 ~wa:6 ~wb:5 ~signed:true
          (fun ctx a c -> Lower.baugh_wooley ctx a c)
          (va, vb)
      in
      Alcotest.(check int) (Printf.sprintf "%d*%d" va vb) (va * vb)
        (Bv.to_signed_int r))
    [ (0, 0); (-32, -16); (31, 15); (-32, 15); (31, -16); (-1, -1); (17, -9) ]

let test_csd_multiply_direct () =
  List.iter
    (fun (coeff, v) ->
      let r =
        eval2 ~wa:10 ~wb:1 ~signed:true
          (fun ctx a _ ->
            Lower.csd_multiply ctx ~signedness:Signed ~width:20 a coeff)
          (v, 0)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" coeff v)
        (coeff * v)
        (Bv.to_signed_int r))
    [ (3, 17); (7, -12); (-5, 100); (1, -512); (0, 123); (341, 2) ]

let test_lower_lt_direct () =
  List.iter
    (fun (signed, va, vb, expect) ->
      let r =
        eval2 ~wa:6 ~wb:6 ~signed (fun ctx a c ->
            Lower.lower_lt ctx
              ~signedness:(if signed then Signed else Unsigned)
              a c)
          (va, vb)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d<%d (%b)" va vb signed)
        expect (Bv.to_int r))
    [
      (false, 3, 5, 1); (false, 5, 3, 0); (false, 5, 5, 0);
      (true, -3, 2, 1); (true, 2, -3, 0); (true, -32, 31, 1);
    ]

let test_lower_eq_direct () =
  List.iter
    (fun (va, vb, expect) ->
      let r =
        eval2 ~wa:8 ~wb:8 ~signed:false (fun ctx a c ->
            Lower.lower_eq ctx ~signedness:Unsigned a c)
          (va, vb)
      in
      Alcotest.(check int) (Printf.sprintf "%d=%d" va vb) expect (Bv.to_int r))
    [ (0, 0, 1); (255, 255, 1); (1, 2, 0); (128, 127, 0) ]

let test_lower_sub_neg_direct () =
  let r =
    eval2 ~wa:8 ~wb:8 ~signed:true
      (fun ctx a c -> Lower.lower_sub ctx ~width:8 a c)
      (20, 120)
  in
  Alcotest.(check int) "20-120" (-100) (Bv.to_signed_int r);
  let r =
    eval2 ~wa:8 ~wb:8 ~signed:true
      (fun ctx a _ -> Lower.lower_neg ctx ~width:8 a)
      (77, 0)
  in
  Alcotest.(check int) "-77" (-77) (Bv.to_signed_int r)

(* Property: csd_multiply agrees with integer multiplication over random
   coefficients and operands. *)
let prop_csd_multiply =
  QCheck.Test.make ~name:"csd_multiply ≡ integer multiply" ~count:300
    QCheck.(pair (int_range (-2000) 2000) (int_range (-200) 200))
    (fun (coeff, v) ->
      let r =
        eval2 ~wa:10 ~wb:1 ~signed:true
          (fun ctx a _ ->
            Lower.csd_multiply ctx ~signedness:Signed ~width:24 a coeff)
          (v, 0)
      in
      Bv.to_signed_int r = coeff * v)

(* Property: baugh_wooley over the full 5x4 input space (exhaustive). *)
let test_baugh_wooley_exhaustive () =
  for va = -16 to 15 do
    for vb = -8 to 7 do
      let r =
        eval2 ~wa:5 ~wb:4 ~signed:true
          (fun ctx a c -> Lower.baugh_wooley ctx a c)
          (va, vb)
      in
      if Bv.to_signed_int r <> va * vb then
        Alcotest.failf "baugh_wooley %d*%d = %d" va vb (Bv.to_signed_int r)
    done
  done

let suite =
  [
    Alcotest.test_case "array_multiply direct" `Quick test_array_multiply_direct;
    Alcotest.test_case "baugh_wooley direct" `Quick test_baugh_wooley_direct;
    Alcotest.test_case "baugh_wooley exhaustive 5x4" `Quick
      test_baugh_wooley_exhaustive;
    Alcotest.test_case "csd_multiply direct" `Quick test_csd_multiply_direct;
    Alcotest.test_case "lower_lt direct" `Quick test_lower_lt_direct;
    Alcotest.test_case "lower_eq direct" `Quick test_lower_eq_direct;
    Alcotest.test_case "lower_sub/neg direct" `Quick test_lower_sub_neg_direct;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_csd_multiply ]
