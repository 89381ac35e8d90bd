open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module Bv = Hls_bitvec

let build_simple () =
  let b = B.create ~name:"simple" in
  let a = B.input b "a" ~width:8 in
  let c = B.input b "c" ~width:8 in
  let sum = B.add b ~width:8 ~label:"sum" a c in
  let prod = B.mul b ~width:16 ~label:"prod" sum a in
  B.output b "o" prod;
  B.finish b

let test_builder_basic () =
  let g = build_simple () in
  Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
  Alcotest.(check int) "two inputs" 2 (List.length g.Graph.inputs);
  let n0 = Graph.node g 0 in
  Alcotest.(check string) "label" "sum" n0.label;
  Alcotest.(check bool) "kind" true (n0.kind = Add);
  Alcotest.(check int) "behavioural ops" 2 (Graph.behavioural_op_count g)

let test_validate_rejects_bad_range () =
  let b = B.create ~name:"bad" in
  let a = B.input b "a" ~width:8 in
  (* Hand-craft an operand over-reading its source. *)
  let too_wide = { a with hi = 12 } in
  let _ = B.node b Add ~width:13 [ too_wide; a ] in
  Alcotest.(check bool) "finish raises" true
    (match B.finish b with
    | _ -> false
    | exception Graph.Invalid _ -> true)

(* Input ports are indexed once per validation: a 400-input graph
   validates, and the undefined-input and over-wide-slice errors keep
   their messages. *)
let test_validate_many_inputs () =
  let b = B.create ~name:"wide" in
  let ins = List.init 400 (fun i -> B.input b (Printf.sprintf "x%d" i) ~width:8) in
  let acc =
    List.fold_left (fun acc x -> B.add b ~width:8 acc x) (List.hd ins) (List.tl ins)
  in
  B.output b "o" acc;
  let g = B.finish b in
  Alcotest.(check int) "400 inputs" 400 (List.length g.Graph.inputs);
  Graph.validate g;
  let message nodes =
    match Graph.validate { g with Graph.nodes } with
    | () -> "validated"
    | exception Graph.Invalid m -> m
  in
  let with_operand o =
    let nodes = Array.copy g.Graph.nodes in
    nodes.(0) <- { (nodes.(0)) with operands = [ o; o ] };
    nodes
  in
  let x0 = List.hd ins in
  Alcotest.(check string) "undefined input"
    "node 0 reads undefined input ghost"
    (message (with_operand { x0 with src = Input "ghost" }));
  let too_wide = { x0 with hi = 12 } in
  Alcotest.(check string) "over-wide slice"
    (Format.asprintf "node 0: operand %a exceeds source width 8" Operand.pp
       too_wide)
    (message (with_operand too_wide))

let test_validate_rejects_bad_arity () =
  let b = B.create ~name:"bad_arity" in
  let a = B.input b "a" ~width:4 in
  let _ = B.node b Mux ~width:4 [ a ] in
  Alcotest.(check bool) "finish raises" true
    (match B.finish b with
    | _ -> false
    | exception Graph.Invalid _ -> true)

let test_validate_rejects_wide_carry () =
  let b = B.create ~name:"bad_cin" in
  let a = B.input b "a" ~width:4 in
  let _ = B.node b Add ~width:5 [ a; a; a ] in
  Alcotest.(check bool) "finish raises" true
    (match B.finish b with
    | _ -> false
    | exception Graph.Invalid _ -> true)

let test_validate_rejects_concat_width_mismatch () =
  let b = B.create ~name:"bad_concat" in
  let a = B.input b "a" ~width:4 in
  let _ = B.node b Concat ~width:9 [ a; a ] in
  Alcotest.(check bool) "finish raises" true
    (match B.finish b with
    | _ -> false
    | exception Graph.Invalid _ -> true)

let test_duplicate_input_rejected () =
  let b = B.create ~name:"dup" in
  let _ = B.input b "a" ~width:4 in
  Alcotest.(check bool) "raises" true
    (match B.input b "a" ~width:4 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_consumers () =
  let g = build_simple () in
  let consumers_of_sum = Graph.consumers g 0 in
  Alcotest.(check int) "sum feeds prod once" 1 (List.length consumers_of_sum);
  let n, _o = List.hd consumers_of_sum in
  Alcotest.(check int) "consumer id" 1 n.id;
  Alcotest.(check int) "prod has no node consumers" 0
    (List.length (Graph.consumers g 1));
  Alcotest.(check int) "prod drives output" 1
    (List.length (Graph.output_consumers g 1));
  Alcotest.(check bool) "sum not dead" false (Graph.is_dead g 0)

let test_operand_helpers () =
  let o = Operand.make (Input "x") ~hi:7 ~lo:4 in
  Alcotest.(check int) "width" 4 (Operand.width o);
  let r = Operand.reslice o ~hi:1 ~lo:0 in
  Alcotest.(check int) "reslice lo" 4 r.lo;
  Alcotest.(check int) "reslice hi" 5 r.hi;
  Alcotest.(check bool) "reslice out of range" true
    (match Operand.reslice o ~hi:4 ~lo:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_kind_predicates () =
  Alcotest.(check bool) "add additive" true (is_additive Add);
  Alcotest.(check bool) "mul additive" true (is_additive Mul);
  Alcotest.(check bool) "gate glue" true (is_glue Gate);
  Alcotest.(check bool) "concat glue" true (is_glue Concat);
  Alcotest.(check bool) "add not glue" false (is_glue Add);
  Alcotest.(check bool) "mux not behavioural" false (is_behavioural Mux)

let test_motivational_shapes () =
  let g = Hls_workloads.Motivational.chain3 () in
  Alcotest.(check int) "chain3 nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "chain3 inputs" 4 (List.length g.Graph.inputs);
  let fig3 = Hls_workloads.Motivational.fig3 () in
  Alcotest.(check int) "fig3 nodes" 8 (Graph.node_count fig3);
  Graph.validate fig3;
  Graph.validate g

let test_total_add_bits () =
  let g = Hls_workloads.Motivational.chain3 () in
  Alcotest.(check int) "3 x 16" 48 (Graph.total_add_bits g)

let suite =
  [
    Alcotest.test_case "builder basic" `Quick test_builder_basic;
    Alcotest.test_case "validate: bad range" `Quick test_validate_rejects_bad_range;
    Alcotest.test_case "validate: bad arity" `Quick test_validate_rejects_bad_arity;
    Alcotest.test_case "validate: 400 inputs" `Quick test_validate_many_inputs;
    Alcotest.test_case "validate: wide carry" `Quick test_validate_rejects_wide_carry;
    Alcotest.test_case "validate: concat width" `Quick
      test_validate_rejects_concat_width_mismatch;
    Alcotest.test_case "duplicate input" `Quick test_duplicate_input_rejected;
    Alcotest.test_case "consumers" `Quick test_consumers;
    Alcotest.test_case "operand helpers" `Quick test_operand_helpers;
    Alcotest.test_case "kind predicates" `Quick test_kind_predicates;
    Alcotest.test_case "motivational shapes" `Quick test_motivational_shapes;
    Alcotest.test_case "total add bits" `Quick test_total_add_bits;
  ]
