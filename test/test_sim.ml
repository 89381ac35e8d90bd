open Hls_dfg.Types
module B = Hls_dfg.Builder
module Bv = Hls_bitvec
module Sim = Hls_sim

let out_int g inputs name =
  let inputs =
    List.map
      (fun (n, v) ->
        let p = Hls_dfg.Graph.input_exn g n in
        (n, Bv.of_int ~width:p.port_width v))
      inputs
  in
  Bv.to_int (List.assoc name (Sim.outputs g ~inputs))

let out_signed g inputs name =
  let inputs =
    List.map
      (fun (n, v) ->
        let p = Hls_dfg.Graph.input_exn g n in
        (n, Bv.of_int ~width:p.port_width v))
      inputs
  in
  Bv.to_signed_int (List.assoc name (Sim.outputs g ~inputs))

let test_chain3_semantics () =
  let g = Hls_workloads.Motivational.chain3 () in
  let v = out_int g [ ("A", 100); ("B", 200); ("D", 300); ("F", 400) ] "G" in
  (* The chain inputs are A,B then D (op 2) then I3 (op 3). *)
  Alcotest.(check int) "sum of four" 1000 v

let test_add_with_carry_bit () =
  let b = B.create ~name:"carry" in
  let a = B.input b "a" ~width:4 in
  let c = B.input b "c" ~width:4 in
  (* 5-bit result of 4-bit operands: bit 4 is the carry out. *)
  let s = B.add b ~width:5 a c in
  B.output b "sum" s;
  B.output b "cout" (Hls_dfg.Operand.make s.src ~hi:4 ~lo:4);
  let g = B.finish b in
  Alcotest.(check int) "full sum" 24 (out_int g [ ("a", 15); ("c", 9) ] "sum");
  Alcotest.(check int) "carry set" 1 (out_int g [ ("a", 15); ("c", 9) ] "cout");
  Alcotest.(check int) "carry clear" 0 (out_int g [ ("a", 3); ("c", 9) ] "cout")

let test_add_carry_in () =
  let b = B.create ~name:"cin" in
  let a = B.input b "a" ~width:4 in
  let c = B.input b "c" ~width:4 in
  let ci = B.input b "ci" ~width:1 in
  let s = B.add_cin b ~width:5 a c ci in
  B.output b "sum" s;
  let g = B.finish b in
  Alcotest.(check int) "with carry" 13 (out_int g [ ("a", 5); ("c", 7); ("ci", 1) ] "sum");
  Alcotest.(check int) "without carry" 12 (out_int g [ ("a", 5); ("c", 7); ("ci", 0) ] "sum")

let test_sub_signed () =
  let b = B.create ~name:"sub" in
  let a = B.input b "a" ~width:8 ~signed:Signed in
  let c = B.input b "c" ~width:8 ~signed:Signed in
  let d = B.sub b ~width:8 ~signedness:Signed a c in
  B.output b "d" d;
  let g = B.finish b in
  Alcotest.(check int) "5 - 9" (-4) (out_signed g [ ("a", 5); ("c", 9) ] "d");
  Alcotest.(check int) "-5 - 9" (-14) (out_signed g [ ("a", -5); ("c", 9) ] "d")

let test_mul_widths () =
  let b = B.create ~name:"mul" in
  let a = B.input b "a" ~width:6 in
  let c = B.input b "c" ~width:4 in
  let p = B.mul b ~width:10 a c in
  B.output b "p" p;
  let g = B.finish b in
  Alcotest.(check int) "63 * 15" (63 * 15) (out_int g [ ("a", 63); ("c", 15) ] "p")

let test_signed_mul () =
  let b = B.create ~name:"smul" in
  let a = B.input b "a" ~width:6 ~signed:Signed in
  let c = B.input b "c" ~width:4 ~signed:Signed in
  let p = B.mul b ~width:10 ~signedness:Signed a c in
  B.output b "p" p;
  let g = B.finish b in
  Alcotest.(check int) "-31 * 7" (-217) (out_signed g [ ("a", -31); ("c", 7) ] "p");
  Alcotest.(check int) "-32 * -8" 256 (out_signed g [ ("a", -32); ("c", -8) ] "p")

let test_comparisons () =
  let b = B.create ~name:"cmp" in
  let a = B.input b "a" ~width:8 ~signed:Signed in
  let c = B.input b "c" ~width:8 ~signed:Signed in
  B.output b "lt" (B.node b Lt ~width:1 ~signedness:Signed [ a; c ]);
  B.output b "ge" (B.node b Ge ~width:1 ~signedness:Signed [ a; c ]);
  B.output b "eq" (B.node b Eq ~width:1 [ a; c ]);
  let g = B.finish b in
  Alcotest.(check int) "-3 < 2" 1 (out_int g [ ("a", -3); ("c", 2) ] "lt");
  Alcotest.(check int) "-3 >= 2 false" 0 (out_int g [ ("a", -3); ("c", 2) ] "ge");
  Alcotest.(check int) "eq" 1 (out_int g [ ("a", 7); ("c", 7) ] "eq")

let test_max_min () =
  let b = B.create ~name:"maxmin" in
  let a = B.input b "a" ~width:8 ~signed:Signed in
  let c = B.input b "c" ~width:8 ~signed:Signed in
  B.output b "mx" (B.max_ b ~width:8 ~signedness:Signed a c);
  B.output b "mn" (B.min_ b ~width:8 ~signedness:Signed a c);
  let g = B.finish b in
  Alcotest.(check int) "max" 2 (out_signed g [ ("a", -3); ("c", 2) ] "mx");
  Alcotest.(check int) "min" (-3) (out_signed g [ ("a", -3); ("c", 2) ] "mn")

let test_glue_kinds () =
  let b = B.create ~name:"glue" in
  let a = B.input b "a" ~width:4 in
  let c = B.input b "c" ~width:4 in
  let s = B.input b "s" ~width:1 in
  B.output b "gated" (B.node b Gate ~width:4 [ a; s ]);
  B.output b "muxed" (B.node b Mux ~width:4 [ s; a; c ]);
  B.output b "cat" (B.node b Concat ~width:8 [ a; c ]);
  B.output b "any" (B.node b Reduce_or ~width:1 [ a ]);
  let g = B.finish b in
  Alcotest.(check int) "gate on" 5 (out_int g [ ("a", 5); ("c", 9); ("s", 1) ] "gated");
  Alcotest.(check int) "gate off" 0 (out_int g [ ("a", 5); ("c", 9); ("s", 0) ] "gated");
  Alcotest.(check int) "mux true" 5 (out_int g [ ("a", 5); ("c", 9); ("s", 1) ] "muxed");
  Alcotest.(check int) "mux false" 9 (out_int g [ ("a", 5); ("c", 9); ("s", 0) ] "muxed");
  (* concat: a is the LSB nibble. *)
  Alcotest.(check int) "concat" ((9 lsl 4) lor 5)
    (out_int g [ ("a", 5); ("c", 9); ("s", 0) ] "cat");
  Alcotest.(check int) "reduce_or" 1 (out_int g [ ("a", 8); ("c", 0); ("s", 0) ] "any");
  Alcotest.(check int) "reduce_or zero" 0 (out_int g [ ("a", 0); ("c", 0); ("s", 0) ] "any")

let test_sext_operand () =
  let b = B.create ~name:"sext" in
  let a = B.input b "a" ~width:4 ~signed:Signed in
  (* Widen via a signed wire: -3 at 4 bits must stay -3 at 8 bits. *)
  let wide = B.node b Wire ~width:8 ~signedness:Signed [ a ] in
  B.output b "w" wide;
  let g = B.finish b in
  Alcotest.(check int) "sign extended" (-3) (out_signed g [ ("a", -3) ] "w")

let test_missing_input_raises () =
  let g = Hls_workloads.Motivational.chain3 () in
  Alcotest.(check bool) "raises" true
    (match Sim.outputs g ~inputs:[] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_wrong_width_raises () =
  let g = Hls_workloads.Motivational.chain3 () in
  let inputs = [ ("A", Bv.zero 3) ] in
  Alcotest.(check bool) "raises" true
    (match Sim.outputs g ~inputs with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_equivalent_self () =
  let g = Hls_workloads.Motivational.fig3 () in
  let prng = Hls_util.Prng.create ~seed:1 in
  Alcotest.(check bool) "graph ≡ itself" true
    (Hls_fuzz.Diff.sampled g g ~vectors:20 ~prng = Ok ())

let test_equivalent_detects_difference () =
  let mk flip =
    let b = B.create ~name:"d" in
    let a = B.input b "a" ~width:4 in
    let c = B.input b "c" ~width:4 in
    let r =
      if flip then B.sub b ~width:4 a c else B.add b ~width:4 a c
    in
    B.output b "o" r;
    B.finish b
  in
  let prng = Hls_util.Prng.create ~seed:2 in
  Alcotest.(check bool) "detected" true
    (match Hls_fuzz.Diff.sampled (mk false) (mk true) ~vectors:50 ~prng with
    | Error _ -> true
    | Ok () -> false)

(* Property: simulating the chain3 graph matches plain integer addition. *)
let prop_chain3 =
  QCheck.Test.make ~name:"chain3 ≡ A+B+D+F (mod 2^16)" ~count:300
    QCheck.(quad (int_bound 65535) (int_bound 65535) (int_bound 65535)
              (int_bound 65535))
    (fun (a, b, d, i3) ->
      let g = Hls_workloads.Motivational.chain3 () in
      out_int g [ ("A", a); ("B", b); ("D", d); ("F", i3) ] "G"
      = (a + b + d + i3) land 0xFFFF)

let suite =
  [
    Alcotest.test_case "chain3 semantics" `Quick test_chain3_semantics;
    Alcotest.test_case "add with carry out" `Quick test_add_with_carry_bit;
    Alcotest.test_case "add with carry in" `Quick test_add_carry_in;
    Alcotest.test_case "signed sub" `Quick test_sub_signed;
    Alcotest.test_case "mul widths" `Quick test_mul_widths;
    Alcotest.test_case "signed mul" `Quick test_signed_mul;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "max/min" `Quick test_max_min;
    Alcotest.test_case "glue kinds" `Quick test_glue_kinds;
    Alcotest.test_case "sext operand" `Quick test_sext_operand;
    Alcotest.test_case "missing input raises" `Quick test_missing_input_raises;
    Alcotest.test_case "wrong width raises" `Quick test_wrong_width_raises;
    Alcotest.test_case "equivalent: self" `Quick test_equivalent_self;
    Alcotest.test_case "equivalent: detects" `Quick test_equivalent_detects_difference;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_chain3 ]
