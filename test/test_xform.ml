(* lib/xform: the verified behaviour-preserving transformation engine.
   Recipe-spec parsing, the catalog's semantics-preservation property
   over random DFGs, the rewrites' intended effects (strength reduction
   kills multipliers, balancing shrinks depth), a golden plan log on an
   ADPCM workload, and — the reason the gate exists — a deliberately
   buggy pass the engine must reject and roll back. *)

open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Bv = Hls_bitvec
module Check = Hls_check
module Pass = Hls_xform.Pass
module Plan = Hls_xform.Plan
module Recipe = Hls_xform.Recipe
module Catalog = Hls_xform.Catalog
module Verify = Hls_xform.Verify
module Engine = Hls_xform.Engine

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let workload name =
  match Hls_workloads.Catalog.find_graph name with
  | Some g -> g
  | None -> Alcotest.failf "%s missing from the workload catalog" name

(* ------------------------------------------------------------------ *)
(* Recipe specs.                                                       *)

let test_recipe_parsing () =
  let spec s =
    match Recipe.parse s with
    | Ok r -> Recipe.to_string r
    | Error m -> Alcotest.failf "parse %S: %s" s m
  in
  check "empty is none" "none" (spec "");
  check "none is none" "none" (spec "none");
  check "plus and comma agree" (spec "fold,cse") (spec "fold+cse");
  check "presets expand in place" "repeat(fold,cse,dce)" (spec "cleanup");
  check "standard body" "canon,fold,cse,strength,balance,dce"
    (spec "standard");
  check "aggressive iterates the standard body"
    "repeat(canon,fold,cse,strength,balance,dce)" (spec "aggressive");
  check "repeat nests" "fold,repeat(cse,dce)" (spec "fold,repeat(cse,dce)");
  (match Recipe.parse "fold,frobnicate" with
  | Error m ->
      check_bool "error names the bad pass" true
        (contains ~affix:"frobnicate" m)
  | Ok _ -> Alcotest.fail "unknown pass must be rejected");
  (match Recipe.parse "repeat(fold" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbalanced parens must be rejected");
  (* the explore axis splitter: commas inside repeat(...) do not split *)
  Alcotest.(check (list string))
    "axis split respects parens"
    [ "none"; "fold+cse"; "repeat(fold,dce)" ]
    (Recipe.split_specs "none, fold+cse, repeat(fold,dce)")

(* ------------------------------------------------------------------ *)
(* Property: every catalog pass, and every preset recipe, preserves
   behaviour on random DFGs.  The checker is exhaustive when the input
   space is small, corners + samples otherwise.                        *)

let prop_catalog_preserves =
  QCheck.Test.make ~name:"every catalog pass preserves random DFGs"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      List.for_all
        (fun (p : Pass.t) ->
          let r = p.Pass.rewrite g in
          match Check.equivalent ~samples:25 ~seed:(seed + 1) g r.Pass.graph with
          | Check.Proved | Check.Passed _ -> true
          | Check.Failed _ ->
              QCheck.Test.fail_reportf "pass %s changed semantics on seed %d"
                p.Pass.name seed)
        Catalog.all)

let prop_presets_preserve =
  QCheck.Test.make ~name:"preset recipes preserve random DFGs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      List.for_all
        (fun recipe ->
          let o = Engine.apply ~policy:Verify.Off recipe g in
          match
            Check.equivalent ~samples:25 ~seed:(seed + 2) g
              o.Engine.graph
          with
          | Check.Proved | Check.Passed _ -> true
          | Check.Failed _ ->
              QCheck.Test.fail_reportf "recipe %s changed semantics on seed %d"
                (Recipe.to_string recipe) seed)
        [ Recipe.cleanup; Recipe.standard; Recipe.aggressive ])

(* Under Every_pass the gate re-checks each application; on sound passes
   nothing may be rejected, and each fired entry carries a verdict.     *)
let prop_gate_accepts_sound_passes =
  QCheck.Test.make ~name:"every_pass gate accepts sound rewrites" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Hls_workloads.Random_dfg.generate ~seed () in
      let o = Engine.apply ~policy:Verify.Every_pass Recipe.standard g in
      o.Engine.rejected = 0
      && List.for_all
           (fun (e : Engine.entry) ->
             (not e.Engine.e_fired) || e.Engine.e_verdict <> None)
           o.Engine.log)

(* ------------------------------------------------------------------ *)
(* The new rewrites do what their catalog entries claim.               *)

let test_strength_kills_multipliers () =
  let b = B.create ~name:"strength" in
  let x = B.input b "x" ~width:8 in
  let y = B.mul b ~width:8 x (Hls_dfg.Operand.of_const (Bv.of_int ~width:8 10)) in
  let z = B.mul b ~width:8 x (Hls_dfg.Operand.of_const (Bv.of_int ~width:8 7)) in
  B.output b "o" (B.add b ~width:8 y z);
  let g = B.finish b in
  check_int "two multipliers in" 2 (Graph.count_kind g Mul);
  let p =
    match Catalog.find "strength" with
    | Some p -> p
    | None -> Alcotest.fail "strength missing from the catalog"
  in
  let r = p.Pass.rewrite g in
  check_int "no multiplier out" 0 (Graph.count_kind r.Pass.graph Mul);
  check_bool "sites reported" true (r.Pass.sites <> []);
  match Check.equivalent g r.Pass.graph with
  | Check.Proved | Check.Passed _ -> ()
  | v -> Alcotest.failf "strength broke the graph: %a" Check.pp_verdict v

let test_balance_shrinks_depth () =
  let b = B.create ~name:"chain" in
  let acc = ref (B.input b "i0" ~width:8) in
  for i = 1 to 7 do
    let x = B.input b (Printf.sprintf "i%d" i) ~width:8 in
    acc := B.add b ~width:8 !acc x
  done;
  B.output b "o" !acc;
  let g = B.finish b in
  check_int "linear chain depth" 7 (Plan.depth g);
  let p =
    match Catalog.find "balance" with
    | Some p -> p
    | None -> Alcotest.fail "balance missing from the catalog"
  in
  let r = p.Pass.rewrite g in
  check_int "balanced tree depth" 3 (Plan.depth r.Pass.graph);
  match Check.equivalent g r.Pass.graph with
  | Check.Proved | Check.Passed _ -> ()
  | v -> Alcotest.failf "balance broke the graph: %a" Check.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Golden plan log: the standard recipe on the ADPCM decoder, verified
   at every pass.  This pins the auditable log format and the recipe's
   actual effect on a paper workload; update deliberately.             *)

let test_golden_adpcm_plan_log () =
  let g = workload "adpcm-decoder" in
  let o =
    Engine.apply ~policy:Verify.Every_pass Recipe.standard g
  in
  check "plan log"
    "applied  canon: 2 sites, nodes 20 -> 20, depth 8 -> 8 [passed 90 \
     vectors]"
    (Format.asprintf "%a" Engine.pp_log o);
  check_int "nothing rejected" 0 o.Engine.rejected

(* ------------------------------------------------------------------ *)
(* The verification gate: a deliberately buggy pass (it rewrites a+b
   into a-b) must be caught, surfaced as a typed failure, and rolled
   back — under Every_pass per application, under Sampled wholesale.   *)

let add_graph () =
  let b = B.create ~name:"gate" in
  let x = B.input b "x" ~width:6 in
  let y = B.input b "y" ~width:6 in
  B.output b "o" (B.add b ~width:6 x y);
  B.finish b

let sub_graph () =
  let b = B.create ~name:"gate" in
  let x = B.input b "x" ~width:6 in
  let y = B.input b "y" ~width:6 in
  B.output b "o" (B.sub b ~width:6 x y);
  B.finish b

let buggy : Pass.t =
  {
    Pass.name = "buggy";
    doc = "deliberately wrong rewrite (test only)";
    rewrite =
      (fun _g ->
        {
          Pass.graph = sub_graph ();
          sites = [ { Plan.at = 0; note = "a+b -> a-b" } ];
        });
  }

let buggy_recipe = { Recipe.spec = "buggy"; steps = [ Recipe.Apply buggy ] }

let test_gate_rejects_buggy_pass () =
  let g = add_graph () in
  let o = Engine.apply ~policy:Verify.Every_pass buggy_recipe g in
  check_int "one rejection" 1 o.Engine.rejected;
  check_bool "graph rolled back" true
    (Graph.digest o.Engine.graph = Graph.digest g);
  (match o.Engine.log with
  | [ e ] ->
      check_bool "entry not accepted" true (not e.Engine.e_accepted);
      check_bool "verdict recorded" true (e.Engine.e_verdict <> None);
      (match e.Engine.e_failure with
      | Some (Hls_util.Failure.Internal (Engine.Rejected { pass; _ })) ->
          check "typed rejection names the pass" "buggy" pass
      | _ -> Alcotest.fail "rejection must carry the typed failure")
  | l -> Alcotest.failf "expected one log entry, got %d" (List.length l));
  (* without the gate the bug sails through — the gate is load-bearing *)
  let unchecked = Engine.apply ~policy:Verify.Off buggy_recipe g in
  check_bool "ungated bug lands" true
    (Graph.digest unchecked.Engine.graph <> Graph.digest g);
  (* sampled: one end-to-end check, whole-recipe rollback *)
  let sampled = Engine.apply ~policy:Verify.Sampled buggy_recipe g in
  check_int "sampled rejects" 1 sampled.Engine.rejected;
  check_bool "sampled rolls back to the input" true
    (Graph.digest sampled.Engine.graph = Graph.digest g)

(* ------------------------------------------------------------------ *)
(* Engine mechanics: repeat reaches a fixed point within the round cap,
   and a no-op pass neither fires nor costs a check.                   *)

let test_repeat_fixpoint () =
  let g = workload "elliptic" in
  let r = Recipe.of_string_exn "repeat(fold,cse,dce)" in
  let o = Engine.apply ~policy:Verify.Off r g in
  let again = Engine.apply ~policy:Verify.Off r o.Engine.graph in
  check_bool "fixed point reached" true
    (Graph.digest o.Engine.graph = Graph.digest again.Engine.graph);
  let fired =
    List.exists (fun (e : Engine.entry) -> e.Engine.e_fired) again.Engine.log
  in
  check_bool "second run is all no-ops" false fired

let test_noop_costs_no_check () =
  let g = add_graph () in
  (* fold has nothing to fold in x+y *)
  let r = Recipe.of_string_exn "fold" in
  let o = Engine.apply ~policy:Verify.Every_pass r g in
  check_int "no check on a no-op" 0 o.Engine.checks;
  check_int "nothing rejected" 0 o.Engine.rejected;
  check_bool "graph untouched" true
    (Graph.digest o.Engine.graph = Graph.digest g)

let suite =
  [
    Alcotest.test_case "recipe specs parse" `Quick test_recipe_parsing;
    QCheck_alcotest.to_alcotest prop_catalog_preserves;
    QCheck_alcotest.to_alcotest prop_presets_preserve;
    QCheck_alcotest.to_alcotest prop_gate_accepts_sound_passes;
    Alcotest.test_case "strength reduction kills multipliers" `Quick
      test_strength_kills_multipliers;
    Alcotest.test_case "balancing shrinks depth" `Quick
      test_balance_shrinks_depth;
    Alcotest.test_case "golden ADPCM plan log" `Quick
      test_golden_adpcm_plan_log;
    Alcotest.test_case "gate rejects a buggy pass" `Quick
      test_gate_rejects_buggy_pass;
    Alcotest.test_case "repeat reaches a fixed point" `Quick
      test_repeat_fixpoint;
    Alcotest.test_case "no-op passes cost no checks" `Quick
      test_noop_costs_no_check;
  ]
