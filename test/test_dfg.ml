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

(* --- validation messages against the pre-rewrite validator --- *)

(* What validating [g] answers: accepted, the [Invalid] message, or the
   [Invalid_argument] the pre-rewrite validator let escape for an unknown
   output source. *)
let outcome validate_result g =
  match validate_result g with
  | Ok () -> "ok"
  | Error m -> "invalid: " ^ m
  | exception Invalid_argument m -> "invalid_argument: " ^ m

(* One node of every arity class over two inputs, then every single-node
   or single-port corruption of it: each answer — the message, byte for
   byte, or acceptance — must be the pre-rewrite validator's
   ([Hls_oracle.Transform_oracle.validate]), except for the two outputs
   reading an unknown input or node: the oracle raises
   [Invalid_argument] there, [Graph.validate] reports [Invalid]. *)
let test_validate_messages_match_oracle () =
  let b = B.create ~name:"every_kind" in
  let x = B.input b "x" ~width:4 in
  let y = B.input b "y" ~width:4 ~signed:Signed in
  let s = B.add_cin b ~width:5 x y (Operand.reslice x ~hi:0 ~lo:0) in
  let bit = Operand.reslice s ~hi:4 ~lo:4 in
  let gt = B.node b Gate ~width:4 [ x; bit ] in
  let mx = B.node b Mux ~width:4 [ bit; gt; y ] in
  let lt = B.lt b mx y in
  let cc = B.node b Concat ~width:5 [ mx; lt ] in
  let r = B.node b Reduce_or ~width:1 [ cc ] in
  let w = B.node b Wire ~width:2 [ Operand.reslice cc ~hi:1 ~lo:0 ] in
  let m = B.sub b ~width:4 w (Operand.of_const (Bv.of_int ~width:3 5)) in
  B.output b "o" m;
  B.output b "r" r;
  let g = B.finish b in
  let n_nodes = Graph.node_count g in
  let operand_edits (o : operand) =
    [ { o with lo = -1 }; { o with hi = o.lo - 1 }; { o with hi = o.hi + 9 };
      { o with src = Node (-1) }; { o with src = Node n_nodes };
      { o with src = Node 7 }; { o with src = Input "nope" };
      { o with src = Const (Bv.of_int ~width:2 1) } ]
  in
  let node_edits (n : node) =
    [ { n with width = 0 }; { n with width = 1 }; { n with width = 9 };
      { n with id = n.id + 1 }; { n with operands = [] };
      { n with operands = n.operands @ [ x ] };
      { n with operands = List.tl (n.operands @ [ x ]) };
      { n with origin = Some { orig_op = "o"; orig_lo = 3; orig_hi = 1 } };
      { n with origin = Some { orig_op = "o"; orig_lo = -1; orig_hi = 1 } } ]
    @ List.map
        (fun kind -> { n with kind })
        [ Add; Sub; Mul; Neg; Lt; Le; Gt; Ge; Eq; Neq; Max; Min; Not; And;
          Or; Xor; Gate; Mux; Concat; Reduce_or; Wire ]
    @ List.concat
        (List.mapi
           (fun i o ->
             List.map
               (fun o' ->
                 { n with
                   operands = List.mapi (fun j p -> if i = j then o' else p)
                       n.operands })
               (operand_edits o))
           n.operands)
  in
  let with_node i n' =
    let nodes = Array.copy g.Graph.nodes in
    nodes.(i) <- n';
    { g with Graph.nodes; cached_index = Atomic.make None }
  in
  let port_edits =
    let p = List.hd g.Graph.inputs and (name, o) = List.hd g.Graph.outputs in
    List.map
      (fun inputs -> { g with Graph.inputs })
      [ { p with port_width = 0 } :: List.tl g.inputs; p :: g.inputs ]
    @ List.map
        (fun outputs -> { g with Graph.outputs })
        [ (name, o) :: g.outputs; [ (name, { o with lo = -1 }) ];
          [ (name, { o with hi = o.hi + 9 }) ];
          [ (name, { o with src = Input "nope" }) ];
          [ (name, { o with src = Node n_nodes }) ];
          [ (name, { o with src = Input "x"; hi = 3; lo = 0 }) ] ]
  in
  let graphs =
    (g :: port_edits)
    @ List.concat_map
        (fun i -> List.map (with_node i) (node_edits (Graph.node g i)))
        (List.init n_nodes Fun.id)
  in
  let unknown_sources =
    [ (6, "invalid: output o reads undefined input nope");
      (7, Printf.sprintf "invalid: output o reads undefined node %d" n_nodes) ]
  in
  let invalid = ref 0 in
  List.iteri
    (fun k g ->
      let want = outcome Hls_oracle.Transform_oracle.validate_result g in
      if want <> "ok" then incr invalid;
      let want =
        match List.assoc_opt k unknown_sources with
        | None -> want
        | Some fixed ->
            Alcotest.(check bool)
              (Printf.sprintf "graph %d: the oracle raised" k)
              true
              (String.starts_with ~prefix:"invalid_argument: " want);
            fixed
      in
      Alcotest.(check string)
        (Printf.sprintf "graph %d" k)
        want
        (outcome Graph.validate_result g))
    graphs;
  Alcotest.(check bool) "most corruptions rejected" true
    (!invalid > List.length graphs / 2)

(* --- the graph writer against the pre-rewrite Format printer --- *)

module Graph_oracle = Hls_oracle.Graph_oracle
module Engine = Hls_xform.Engine

(* Every printed form of [g] — [to_string], [pp] and [digest] — is the
   Format oracle's, byte for byte. *)
let check_writer tag g =
  let want = Graph_oracle.to_string g in
  if Graph.to_string g <> want then
    Alcotest.failf "%s: printed form differs from the Format oracle" tag;
  if Format.asprintf "%a" Graph.pp g <> want then
    Alcotest.failf "%s: Graph.pp differs from the Format oracle" tag;
  if Graph.digest g <> Graph_oracle.digest g then
    Alcotest.failf "%s: digest differs from the Format oracle's" tag

(* Every catalog workload, its kernel, and its fragmented graph at
   λ 2–22 under both policies (infeasible points skipped). *)
let test_writer_catalog () =
  let module Catalog = Hls_workloads.Catalog in
  let module Mobility = Hls_fragment.Mobility in
  let checked = ref 0 in
  let check tag g =
    check_writer tag g;
    incr checked
  in
  List.iter
    (fun e ->
      let name = e.Catalog.name in
      let g = Catalog.graph e in
      check name g;
      let kernel = Hls_kernel.Extract.run g in
      check (name ^ " kernel") kernel;
      List.iter
        (fun policy ->
          for latency = 2 to 22 do
            match Mobility.compute ~policy kernel ~latency with
            | exception Invalid_argument _ -> ()
            | plan ->
                check
                  (Printf.sprintf "%s λ%d %s" name latency
                     (Hls_dse.Space.policy_name policy))
                  (Hls_fragment.Transform.apply kernel plan).graph
          done)
        [ `Full; `Coalesced ])
    (Catalog.all ());
  Alcotest.(check bool) "most fragmented points printed" true
    (!checked > 18 * 21)

(* 200 designs of the cold benchmark's shape (20–80 operations, more
   than 16 input bits), drawn once and shared by the writer and engine
   cases. *)
let cold_designs =
  lazy
    (let profile =
       { Hls_fuzz.Gen.default_profile with
         n_inputs = 5; n_stmts = 14; n_outputs = 3; depth = 3;
         max_width = 16 }
     in
     let prng = Hls_util.Prng.create ~seed:27 in
     let rec draw acc n =
       if n = 0 then List.rev acc
       else
         match
           Hls_speclang.Elaborate.from_string_result
             (Hls_fuzz.Gen.source prng profile)
         with
         | Ok g
           when let ops = Graph.behavioural_op_count g in
                ops >= 20 && ops <= 80 && Hls_check.input_bits g > 16 ->
             draw (g :: acc) (n - 1)
         | Ok _ | Error _ -> draw acc n
     in
     draw [] 200)

let cold_recipes =
  List.map Hls_xform.Recipe.of_string_exn [ "standard"; "aggressive" ]

(* Each design, what [standard] and [aggressive] make of it, and those
   graphs' kernels. *)
let test_writer_generated () =
  List.iteri
    (fun i g ->
      let tag = Printf.sprintf "design %d" i in
      check_writer tag g;
      List.iter
        (fun (r : Hls_xform.Recipe.t) ->
          let o = Engine.apply r g in
          check_writer (tag ^ " " ^ r.spec) o.graph;
          check_writer
            (tag ^ " " ^ r.spec ^ " kernel")
            (Hls_kernel.Extract.run o.graph))
        cold_recipes)
    (Lazy.force cold_designs)

(* The engine decides "fired" by comparing printed forms: on every
   design and both recipes, verified pass by pass as the cold benchmark
   runs them, it answers the pre-rewrite engine's log, check count,
   rejection count and graph. *)
let test_engine_matches_oracle () =
  let fired = ref 0 and idle = ref 0 in
  List.iteri
    (fun i g ->
      List.iter
        (fun (r : Hls_xform.Recipe.t) ->
          let policy = Hls_xform.Verify.Every_pass in
          let o = Engine.apply ~policy r g in
          let w = Graph_oracle.engine_apply ~policy r g in
          let tag = Printf.sprintf "design %d %s" i r.spec in
          if o.log <> w.log then Alcotest.failf "%s: log differs" tag;
          if o.checks <> w.checks then
            Alcotest.failf "%s: %d checks, the oracle ran %d" tag o.checks
              w.checks;
          if o.rejected <> w.rejected then
            Alcotest.failf "%s: %d rejected, the oracle %d" tag o.rejected
              w.rejected;
          if Graph.to_string o.graph <> Graph.to_string w.graph then
            Alcotest.failf "%s: graph differs" tag;
          List.iter
            (fun (e : Engine.entry) ->
              if e.e_fired then incr fired else incr idle)
            o.log)
        cold_recipes)
    (Lazy.force cold_designs);
  Alcotest.(check bool) "passes fired and passes idle" true
    (!fired > 0 && !idle > 0)

(* Random graphs the builder would never make — unchecked, so printing
   must not care: 0–8 or 400–463 input ports, sign-extending operands,
   constants 1–64 bits wide, empty and non-empty labels (and names),
   negative ranges, any operand count. *)
let random_graph seed =
  let module Prng = Hls_util.Prng in
  let p = Prng.create ~seed in
  let ident () =
    String.init (Prng.int p 6) (fun _ -> Char.chr (97 + Prng.int p 26))
  in
  let n_inputs = if Prng.bool p then 400 + Prng.int p 64 else Prng.int p 9 in
  let inputs =
    List.init n_inputs (fun i ->
        { port_name = ident () ^ string_of_int i;
          port_width = Prng.int p 70 - 2;
          port_signed = (if Prng.bool p then Signed else Unsigned) })
  in
  let n_nodes = Prng.int p 40 in
  let operand () =
    let src =
      match Prng.int p 3 with
      | 0 -> Input (ident ())
      | 1 -> Node (Prng.int p (n_nodes + 2) - 1)
      | _ -> Const (Bv.random ~width:(1 + Prng.int p 64) p)
    in
    { src; hi = Prng.int p 80 - 3; lo = Prng.int p 70 - 3;
      ext = (if Prng.bool p then Sext else Zext) }
  in
  let kinds =
    [| Add; Sub; Mul; Neg; Lt; Le; Gt; Ge; Eq; Neq; Max; Min; Not; And; Or;
       Xor; Gate; Mux; Concat; Reduce_or; Wire |]
  in
  let nodes =
    Array.init n_nodes (fun id ->
        { id; kind = kinds.(Prng.int p (Array.length kinds));
          signedness = (if Prng.bool p then Signed else Unsigned);
          width = Prng.int p 130 - 1;
          operands = List.init (Prng.int p 5) (fun _ -> operand ());
          label = (if Prng.bool p then "" else ident () ^ ".s3");
          origin = None })
  in
  { Graph.name = ident ();
    inputs;
    outputs = List.init (Prng.int p 6) (fun _ -> (ident (), operand ()));
    nodes;
    cached_index = Atomic.make None }

let prop_writer_random =
  QCheck.Test.make ~name:"graph writer == Format oracle, random graphs"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let g = random_graph seed in
      Graph.to_string g = Graph_oracle.to_string g
      && Graph.digest g = Graph_oracle.digest g)

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
    Alcotest.test_case "validate messages == oracle" `Quick
      test_validate_messages_match_oracle;
    Alcotest.test_case "graph writer == Format oracle" `Slow
      test_writer_catalog;
    Alcotest.test_case "graph writer == Format oracle, cold designs" `Slow
      test_writer_generated;
    Alcotest.test_case "engine apply == oracle engine, cold designs" `Slow
      test_engine_matches_oracle;
    QCheck_alcotest.to_alcotest prop_writer_random;
  ]
