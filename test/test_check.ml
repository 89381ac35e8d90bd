(* lib/check: the bit-sliced equivalence checker against the pre-rewrite
   checker kept in [Hls_oracle.Check_oracle].  Both must reach the same
   verdict on every pair — the same [Passed] counts and the same [Failed]
   counterexample, input, port and values — on every catalog workload's
   optimized flow, on fixed-seed generated designs, and on mutants of
   both with one planted wrong operation.  Also the exhaustive budget's
   soundness guard. *)

open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Check = Hls_check
module Oracle = Hls_oracle.Check_oracle
module P = Hls_core.Pipeline
module Prng = Hls_util.Prng

let render v = Format.asprintf "%a" Check.pp_verdict v

module type CHECKER = sig
  val exhaustive : ?max_bits:int -> Graph.t -> Graph.t -> Check.verdict
  val corners : Graph.t -> Graph.t -> Check.verdict

  val equivalent :
    ?exhaustive_budget:int -> ?samples:int -> ?seed:int -> Graph.t ->
    Graph.t -> Check.verdict
end

let checkers : (module CHECKER) * (module CHECKER) =
  ((module Check), (module Oracle))

(* Run one strategy on both checkers; rendered and structural verdicts
   agree. *)
let agree what strategy =
  let fresh, oracle = checkers in
  let v = strategy fresh and o = strategy oracle in
  Alcotest.(check string) (what ^ ": rendered verdict") (render o) (render v);
  Alcotest.(check bool) (what ^ ": same counterexample") true (v = o)

(* The strategies the program runs: the pipeline's end-to-end check
   (exhaustive up to 16 input bits, else corners and 40 samples), pure
   sampling as the fuzz lanes run it, corners alone, and exhaustive
   enumeration when it is cheap. *)
let all_strategies what a b =
  List.iter
    (fun (name, strategy) -> agree (what ^ " " ^ name) strategy)
    ([
       ( "pipeline",
         fun (module C : CHECKER) -> C.equivalent ~samples:40 ~seed:99 a b );
       ( "sampled",
         fun (module C : CHECKER) ->
           C.equivalent ~exhaustive_budget:0 ~samples:70 ~seed:3 a b );
       ("corners", fun (module C : CHECKER) -> C.corners a b);
     ]
    @
    if Check.input_bits a <= 12 then
      [ ("exhaustive", fun (module C : CHECKER) -> C.exhaustive a b) ]
    else [])

(* Plant one wrong operation: the middle node of kind [from] becomes
   [into].  [None] when the graph has no such node. *)
let plant ~from ~into g =
  let hits =
    Graph.fold_nodes
      (fun acc n ->
        if n.kind = from && List.length n.operands = 2 then n.id :: acc else acc)
      [] g
  in
  match hits with
  | [] -> None
  | _ ->
      let target = List.nth hits (List.length hits / 2) in
      Some
        (Hls_dfg.Rewrite.run g ~f:(fun ctx n ->
             if n.id <> target then Hls_dfg.Rewrite.copy ctx n
             else
               B.node ctx.Hls_dfg.Rewrite.b into ~width:n.width
                 ~signedness:n.signedness ~label:n.label
                 (List.map (Hls_dfg.Rewrite.map_operand ctx) n.operands)))

let mutations =
  [ (Add, Sub); (And, Or); (Xor, Or); (Lt, Le); (Max, Min); (Mul, Add) ]

(* The pair itself, then every planted mutant of either side. *)
let differential what a b =
  all_strategies what a b;
  List.iter
    (fun (from, into) ->
      let tag side =
        Printf.sprintf "%s %s %s->%s" what side (kind_to_string from)
          (kind_to_string into)
      in
      Option.iter (all_strategies (tag "spec") a) (plant ~from ~into a);
      Option.iter (all_strategies (tag "optimized") a) (plant ~from ~into b))
    mutations

let optimized g ~latency =
  match P.run_graph P.default_config g ~latency with
  | Ok r -> r.P.transformed.Hls_fragment.Transform.graph
  | Error f -> Alcotest.failf "flow failed: %s" (Hls_util.Failure.to_string f)

(* The stress workloads are left out: the oracle needs seconds per check
   on them (minutes across all strategies and mutants). *)
let test_catalog () =
  List.iter
    (fun e ->
      let open Hls_workloads.Catalog in
      if not (List.mem "stress" e.tags) then
        let g = graph e in
        differential e.name g (optimized g ~latency:e.default_latency))
    (Hls_workloads.Catalog.all ())

(* Designs of the shape the repo benchmark's cold workload draws, and
   narrow ones whose input space the pipeline's check enumerates. *)
let cold_profile =
  { Hls_fuzz.Gen.default_profile with
    n_inputs = 5; n_stmts = 14; n_outputs = 3; depth = 3; max_width = 16 }

let narrow_profile =
  { cold_profile with n_inputs = 2; n_stmts = 8; max_width = 6 }

let test_generated () =
  let prng = Prng.create ~seed:0x5eed in
  let rec draw what profile k =
    if k > 0 then
      let src = Hls_fuzz.Gen.source prng profile in
      match Hls_speclang.Elaborate.from_string_result src with
      | Error _ -> draw what profile k
      | Ok g ->
          differential
            (Printf.sprintf "%s design %d" what k)
            g (optimized g ~latency:4);
          draw what profile (k - 1)
  in
  draw "cold" cold_profile 3;
  draw "narrow" narrow_profile 4

(* x + y against x - y on two [w]-bit ports. *)
let add_vs_sub w =
  let mk kind =
    let b = B.create ~name:(Printf.sprintf "pair%d" w) in
    let x = B.input b "x" ~width:w and y = B.input b "y" ~width:w in
    B.output b "s" (B.node b kind ~width:w [ x; y ]);
    B.finish b
  in
  (mk Add, mk Sub)

(* [1 lsl bits] overflows past 61 input bits; an exhaustive budget that
   large used to "prove" x + y = x - y without checking a vector. *)
let test_budget_guard () =
  List.iter
    (fun w ->
      let a, b = add_vs_sub w in
      let raises what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | v ->
            Alcotest.failf "%d-bit %s: expected Invalid_argument, got %s" w
              what (render v)
      in
      raises "exhaustive 64" (fun () -> Check.exhaustive ~max_bits:64 a b);
      raises "exhaustive 62" (fun () -> Check.exhaustive ~max_bits:62 a b);
      raises "equivalent 64" (fun () ->
          Check.equivalent ~exhaustive_budget:64 a b);
      match Check.equivalent a b with
      | Check.Failed _ -> ()
      | v -> Alcotest.failf "%d-bit add vs sub: %s" w (render v))
    [ 31; 32 ];
  let a, b = add_vs_sub 8 in
  match Check.exhaustive ~max_bits:61 a b with
  | Check.Failed _ -> ()
  | v -> Alcotest.failf "8-bit add vs sub under budget 61: %s" (render v)

(* Argument errors match the oracle's. *)
let test_invalid_arguments () =
  let a, _ = add_vs_sub 4 in
  let other =
    let b = B.create ~name:"other" in
    let x = B.input b "x" ~width:4 in
    B.output b "t" x;
    B.finish b
  in
  let message strategy checker =
    match strategy checker with
    | exception Invalid_argument m -> m
    | v -> "no error: " ^ render v
  in
  List.iter
    (fun (what, strategy) ->
      let fresh, oracle = checkers in
      Alcotest.(check string)
        what (message strategy oracle) (message strategy fresh))
    [
      ( "no common outputs (exhaustive)",
        fun (module C : CHECKER) -> C.exhaustive a other );
      ("no common outputs (corners)", fun (module C : CHECKER) -> C.corners a other);
      ("over budget", fun (module C : CHECKER) -> C.exhaustive ~max_bits:4 a a);
    ]

let suite =
  [
    Alcotest.test_case "same verdicts as the oracle: catalog" `Quick
      test_catalog;
    Alcotest.test_case "same verdicts as the oracle: generated" `Quick
      test_generated;
    Alcotest.test_case "exhaustive budget capped at 61 bits" `Quick
      test_budget_guard;
    Alcotest.test_case "argument errors match the oracle" `Quick
      test_invalid_arguments;
  ]
