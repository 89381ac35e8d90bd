module Parser = Hls_speclang.Parser
module Elaborate = Hls_speclang.Elaborate
module Emit = Hls_speclang.Emit
module Vhdl = Hls_speclang.Vhdl
module Ast = Hls_speclang.Ast
module Graph = Hls_dfg.Graph
module Bv = Hls_bitvec


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

let chain3_src =
  {|
# The paper's Fig. 1a behavioural specification.
module example;
input A : 16;
input B : 16;
input D : 16;
input F : 16;
output G : 16;
var C : 16;
var E : 16;
C = A + B;
E = C + D;
G = E + F;
end
|}

let fig2a_src =
  {|
-- The paper's Fig. 2a transformed specification, statement for statement:
-- sequential variable semantics let the carry bits C[6], E[5], G[4], C[12],
-- E[11], G[10] be read as carries and then overwritten by the next
-- fragment, exactly as in the VHDL.
module example2;
input A : 16;
input B : 16;
input D : 16;
input F : 16;
output G : 16;
var C : 16;
var E : 16;
C[6:0] = (0'1 & A[5:0]) + (0'1 & B[5:0]);
E[5:0] = (0'1 & C[4:0]) + (0'1 & D[4:0]);
G[4:0] = (0'1 & E[3:0]) + (0'1 & F[3:0]);
C[12:6] = (0'1 & A[11:6]) + (0'1 & B[11:6]) + C[6];
E[11:5] = (0'1 & C[10:5]) + (0'1 & D[10:5]) + E[5];
G[10:4] = (0'1 & E[9:4]) + (0'1 & F[9:4]) + G[4];
C[15:12] = A[15:12] + B[15:12] + C[12];
E[15:11] = C[15:11] + D[15:11] + E[11];
G[15:10] = E[15:10] + F[15:10] + G[10];
end
|}

let test_lexer_basics () =
  let toks = Hls_speclang.Lexer.tokenize "module m; x = a + 0b101; end" in
  let kinds = List.map (fun t -> t.Hls_speclang.Token.token) toks in
  Alcotest.(check int) "token count" 11 (List.length kinds);
  Alcotest.(check bool) "binary literal" true
    (List.mem (Hls_speclang.Token.Number 5) kinds)

let test_lexer_comments () =
  let toks = Hls_speclang.Lexer.tokenize "# hi\nmodule -- there\n m;" in
  Alcotest.(check int) "tokens" 4 (List.length toks)

let test_lexer_rejects () =
  Alcotest.(check bool) "bad char" true
    (match Hls_speclang.Lexer.tokenize "module @" with
    | _ -> false
    | exception Hls_speclang.Lexer.Error _ -> true)

let test_parse_chain3 () =
  let ast = Parser.parse chain3_src in
  Alcotest.(check string) "name" "example" ast.Ast.name;
  Alcotest.(check int) "decls" 7 (List.length ast.Ast.decls);
  Alcotest.(check int) "stmts" 3 (List.length ast.Ast.stmts)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" src)
    [
      "module m x = 1; end";
      "module m; x = ; end";
      "module m; input x 8; end";
      "module m; x = 1;";
      "module m; x = (1; end";
    ]

let test_elaborate_chain3_matches_builtin () =
  let g = Elaborate.from_string chain3_src in
  Graph.validate g;
  Alcotest.(check int) "three adds" 3 (Graph.node_count g);
  let builtin = Hls_workloads.Motivational.chain3 () in
  let prng = Hls_util.Prng.create ~seed:5 in
  Alcotest.(check bool) "equivalent to the built-in graph" true
    (Hls_sim.equivalent g builtin ~trials:50 ~prng = Ok ())

let test_elaborate_fig2a_equivalent_to_fig1a () =
  (* The hand-written transformed spec computes the same function. *)
  let original = Elaborate.from_string chain3_src in
  let transformed = Elaborate.from_string fig2a_src in
  let prng = Hls_util.Prng.create ~seed:6 in
  Alcotest.(check bool) "Fig 2a ≡ Fig 1a" true
    (Hls_sim.equivalent original transformed ~trials:100 ~prng = Ok ())

let test_elaborate_width_rules () =
  let g =
    Elaborate.from_string
      {|
module w;
input a : 4;
input b : 6;
output p : 10;
output c : 1;
p = a * b;
c = a < b;
end
|}
  in
  let mk w v = Bv.of_int ~width:w v in
  let out =
    Hls_sim.outputs g ~inputs:[ ("a", mk 4 11); ("b", mk 6 50) ]
  in
  Alcotest.(check int) "product" 550 (Bv.to_int (List.assoc "p" out));
  Alcotest.(check int) "less-than" 1 (Bv.to_int (List.assoc "c" out))

let test_elaborate_signed () =
  let g =
    Elaborate.from_string
      {|
module s;
input a : 8 signed;
input b : 8 signed;
output mn : 8;
mn = min(a, b);
end
|}
  in
  let mk v = Bv.of_int ~width:8 v in
  let out = Hls_sim.outputs g ~inputs:[ ("a", mk (-5)); ("b", mk 3) ] in
  Alcotest.(check int) "signed min" (-5)
    (Bv.to_signed_int (List.assoc "mn" out))

let test_elaborate_rejects () =
  List.iter
    (fun (src, what) ->
      match Elaborate.from_string_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %s" what)
    [
      ("module m; output o : 4; o = x + 1; end", "undeclared identifier");
      ( "module m; input a : 8; output o : 4; o = a; end",
        "silent truncation" );
      ( "module m; input a : 4; output o : 8; o = a[9:0]; end",
        "slice out of range" );
      ( "module m; input a : 4; output o : 8; a = a + a; end",
        "assignment to input" );
      ( "module m; input a : 4; output o : 8; var v : 8; o = v; end",
        "read before assignment" );
    ]

let test_reassignment_last_write_wins () =
  (* VHDL variable semantics: statements execute in order; later writes
     supersede earlier ones for subsequent reads. *)
  let g =
    Elaborate.from_string
      {|
module seq;
input a : 8;
input b : 8;
output first : 8;
output final : 8;
var v : 8;
v = a;
first = v;
v = b;
final = v;
end
|}
  in
  let mk v = Bv.of_int ~width:8 v in
  let out = Hls_sim.outputs g ~inputs:[ ("a", mk 11); ("b", mk 22) ] in
  Alcotest.(check int) "read before overwrite" 11
    (Bv.to_int (List.assoc "first" out));
  Alcotest.(check int) "read after overwrite" 22
    (Bv.to_int (List.assoc "final" out))

let test_partial_overwrite () =
  (* Overwriting a sub-slice leaves the other bits from the older write. *)
  let g =
    Elaborate.from_string
      {|
module po;
input a : 8;
input b : 4;
output o : 8;
var v : 8;
v = a;
v[5:2] = b;
o = v;
end
|}
  in
  let out =
    Hls_sim.outputs g
      ~inputs:[ ("a", Bv.of_string "10110101"); ("b", Bv.of_string "0110") ]
  in
  Alcotest.(check string) "spliced" "10011001"
    (Bv.to_string (List.assoc "o" out))

let test_slice_assembly () =
  let g =
    Elaborate.from_string
      {|
module asm;
input a : 4;
input b : 4;
output o : 8;
o[3:0] = a;
o[7:4] = b;
end
|}
  in
  let mk v = Bv.of_int ~width:4 v in
  let out = Hls_sim.outputs g ~inputs:[ ("a", mk 5); ("b", mk 9) ] in
  Alcotest.(check int) "assembled" ((9 lsl 4) lor 5)
    (Bv.to_int (List.assoc "o" out))

let test_ternary () =
  let g =
    Elaborate.from_string
      {|
module t;
input a : 8;
input b : 8;
output o : 8;
output clipped : 8;
o = (a < b) ? a : b;
clipped = (a < 200'8) ? a : 200'8;
end
|}
  in
  let mk v = Bv.of_int ~width:8 v in
  let out = Hls_sim.outputs g ~inputs:[ ("a", mk 5); ("b", mk 9) ] in
  Alcotest.(check int) "min via ternary" 5
    (Bv.to_int (List.assoc "o" out));
  Alcotest.(check int) "clip below" 5 (Bv.to_int (List.assoc "clipped" out));
  let out = Hls_sim.outputs g ~inputs:[ ("a", mk 250); ("b", mk 9) ] in
  Alcotest.(check int) "clip above" 200
    (Bv.to_int (List.assoc "clipped" out))

let test_ternary_flow () =
  (* The ternary's Mux survives kernel extraction + fragmentation. *)
  let g =
    Elaborate.from_string
      {|
module sat;
input x : 12 signed;
input limit : 12 signed;
output y : 12;
y = (x < limit) ? x : limit;
end
|}
  in
  let opt = optimized g ~latency:2 in
  match Hls_core.Pipeline.check_optimized_equivalence ~trials:60 g opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "ternary flow: %s" m

let test_ternary_rejects_wide_condition () =
  Alcotest.(check bool) "2-bit condition rejected" true
    (match
       Elaborate.from_string_result
         "module m; input a : 2; output o : 2; o = a ? a : a; end"
     with
    | Error _ -> true
    | Ok _ -> false)

let test_emit_roundtrip_chain3 () =
  let g = Hls_workloads.Motivational.chain3 () in
  let src = Emit.emit g in
  let g2 = Elaborate.from_string src in
  let prng = Hls_util.Prng.create ~seed:7 in
  Alcotest.(check bool) "roundtrip equivalent" true
    (Hls_sim.equivalent g g2 ~trials:50 ~prng = Ok ())

let test_emit_roundtrip_transformed () =
  (* The transformed (fragmented) chain3 graph survives the round trip:
     print it as source, re-parse, re-elaborate, same function. *)
  let g = Hls_workloads.Motivational.chain3 () in
  let t = Hls_fragment.Transform.run g ~latency:3 in
  let src = Emit.emit t.Hls_fragment.Transform.graph in
  let g2 = Elaborate.from_string src in
  let prng = Hls_util.Prng.create ~seed:8 in
  Alcotest.(check bool) "roundtrip equivalent" true
    (Hls_sim.equivalent g g2 ~trials:50 ~prng = Ok ())

let test_vhdl_emission_smoke () =
  let g = Hls_workloads.Motivational.chain3 () in
  let v = Vhdl.emit g in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains v needle))
    [ "entity chain3_w16"; "std_logic_vector(15 downto 0)"; "process" ]

let test_vhdl_transformed_has_slices () =
  let g = Hls_workloads.Motivational.chain3 () in
  let t = Hls_fragment.Transform.run g ~latency:3 in
  let v = Vhdl.emit t.Hls_fragment.Transform.graph in
  Alcotest.(check bool) "has sliced operands" true
    (contains v "(5 downto 0)")

(* Property: emitted source of random additive graphs re-elaborates to an
   equivalent graph. *)
let prop_emit_roundtrip =
  QCheck.Test.make ~name:"emit/parse/elaborate roundtrip" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g =
        Hls_workloads.Random_dfg.generate
          ~profile:Hls_workloads.Random_dfg.additive_profile ~seed ()
      in
      match Emit.emit g with
      | src -> (
          match Elaborate.from_string_result src with
          | Ok g2 ->
              Hls_sim.equivalent g g2 ~trials:20
                ~prng:(Hls_util.Prng.create ~seed:(seed + 1))
              = Ok ()
          | Error _ -> false)
      | exception Emit.Unprintable _ -> true)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer rejects" `Quick test_lexer_rejects;
    Alcotest.test_case "parse chain3" `Quick test_parse_chain3;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "elaborate chain3" `Quick
      test_elaborate_chain3_matches_builtin;
    Alcotest.test_case "Fig 2a ≡ Fig 1a" `Quick
      test_elaborate_fig2a_equivalent_to_fig1a;
    Alcotest.test_case "width rules" `Quick test_elaborate_width_rules;
    Alcotest.test_case "signed min" `Quick test_elaborate_signed;
    Alcotest.test_case "elaborate rejects" `Quick test_elaborate_rejects;
    Alcotest.test_case "slice assembly" `Quick test_slice_assembly;
    Alcotest.test_case "reassignment: last write wins" `Quick
      test_reassignment_last_write_wins;
    Alcotest.test_case "partial overwrite" `Quick test_partial_overwrite;
    Alcotest.test_case "ternary" `Quick test_ternary;
    Alcotest.test_case "ternary through the flow" `Quick test_ternary_flow;
    Alcotest.test_case "ternary wide condition" `Quick
      test_ternary_rejects_wide_condition;
    Alcotest.test_case "emit roundtrip chain3" `Quick test_emit_roundtrip_chain3;
    Alcotest.test_case "emit roundtrip transformed" `Quick
      test_emit_roundtrip_transformed;
    Alcotest.test_case "vhdl smoke" `Quick test_vhdl_emission_smoke;
    Alcotest.test_case "vhdl transformed slices" `Quick
      test_vhdl_transformed_has_slices;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_emit_roundtrip ]
