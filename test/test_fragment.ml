open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Mobility = Hls_fragment.Mobility
module Transform = Hls_fragment.Transform
module Extract = Hls_kernel.Extract
module Cp = Hls_timing.Critical_path
module Motivational = Hls_workloads.Motivational

let frag_tuple (f : Mobility.frag) = (f.f_lo, f.f_hi, f.f_asap, f.f_alap)

let frags_of g plan label =
  let id =
    Graph.fold_nodes
      (fun acc n -> if n.label = label then Some n.id else acc)
      None g
  in
  match id with
  | Some id -> List.map frag_tuple plan.Mobility.per_node.(id)
  | None -> Alcotest.failf "no node %s" label

let tuple4 = Alcotest.(list (pair (pair int int) (pair int int)))

let pairify = List.map (fun (a, b, c, d) -> ((a, b), (c, d)))

(* Fig. 3 c-f: the paper's exact fragment decomposition at λ=3, 3δ. *)
let test_fig3_fragments () =
  let g = Motivational.fig3 () in
  let plan = Mobility.compute g ~latency:3 in
  Alcotest.(check int) "n_bits" 3 plan.Mobility.n_bits;
  let check label expected =
    Alcotest.check tuple4 label (pairify expected)
      (pairify (frags_of g plan label))
  in
  (* B -> B1..0 fixed@1, B2 mobile 1-2, B4..3 fixed@2, B5 mobile 2-3. *)
  check "B" [ (0, 1, 1, 1); (2, 2, 1, 2); (3, 4, 2, 2); (5, 5, 2, 3) ];
  (* C -> C0@1, C1 (1-2), C3..2@2, C4 (2-3), C5@3. *)
  check "C"
    [ (0, 0, 1, 1); (1, 1, 1, 2); (2, 3, 2, 2); (4, 4, 2, 3); (5, 5, 3, 3) ];
  (* D mirrors the paper: D0@1, D2..1 (1-2), D3@2, D5..4 (2-3). *)
  check "D" [ (0, 0, 1, 1); (1, 2, 1, 2); (3, 3, 2, 2); (4, 5, 2, 3) ];
  (* E -> E0 (1-2), E2..1@2, E3 (2-3), E5..4@3. *)
  check "E" [ (0, 0, 1, 2); (1, 2, 2, 2); (3, 3, 2, 3); (4, 5, 3, 3) ];
  (* A (standalone) -> A1..0 (1-2), A2 (1-3), A4..3 (2-3). *)
  check "A" [ (0, 1, 1, 2); (2, 2, 1, 3); (3, 4, 2, 3) ];
  (* F, G, H are fully fixed: 3+3+2 bits. *)
  check "F" [ (0, 2, 1, 1); (3, 5, 2, 2); (6, 7, 3, 3) ];
  check "G" [ (0, 2, 1, 1); (3, 5, 2, 2); (6, 7, 3, 3) ];
  check "H" [ (0, 1, 1, 1); (2, 4, 2, 2); (5, 7, 3, 3) ]

(* Fig. 2: chain3 at λ=3 (6δ cycle). E and G are fully fixed with the
   paper's exact bit ranges; C has two mobile seams. *)
let test_chain3_fragments () =
  let g = Motivational.chain3 () in
  let plan = Mobility.compute g ~latency:3 in
  Alcotest.(check int) "n_bits" 6 plan.Mobility.n_bits;
  let check label expected =
    Alcotest.check tuple4 label (pairify expected)
      (pairify (frags_of g plan label))
  in
  (* The whole spec is one rigid chain, so every fragment is fixed; the
     6/6/4-style split matches the transformed VHDL of Fig. 2a. *)
  check "C" [ (0, 5, 1, 1); (6, 11, 2, 2); (12, 15, 3, 3) ];
  check "E" [ (0, 4, 1, 1); (5, 10, 2, 2); (11, 15, 3, 3) ];
  check "G" [ (0, 3, 1, 1); (4, 9, 2, 2); (10, 15, 3, 3) ]

let test_fragment_counts () =
  let g = Motivational.fig3 () in
  let plan = Mobility.compute g ~latency:3 in
  Alcotest.(check int) "total fragments" (4 + 5 + 4 + 4 + 3 + 3 + 3 + 3)
    (Mobility.fragment_count plan);
  Alcotest.(check int) "all 8 ops broken" 8 (Mobility.broken_op_count plan)

let test_single_cycle_no_fragmentation () =
  let g = Motivational.fig3 () in
  (* λ=1: everything fixed in cycle 1, one fragment per op. *)
  let plan = Mobility.compute g ~latency:1 in
  Alcotest.(check int) "one fragment per op" 8 (Mobility.fragment_count plan);
  Alcotest.(check int) "nothing broken" 0 (Mobility.broken_op_count plan)

let test_infeasible_budget_rejected () =
  let g = Motivational.fig3 () in
  Alcotest.(check bool) "n_bits 2 at λ=3 is infeasible" true
    (match Mobility.compute g ~latency:3 ~n_bits:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let check_transform_equiv ?(trials = 60) ~seed g ~latency =
  let t = Transform.run g ~latency in
  Graph.validate t.Transform.graph;
  (match
     Hls_fuzz.Diff.sampled g t.Transform.graph ~vectors:trials
       ~prng:(Hls_util.Prng.create ~seed)
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "transform changed semantics: %s" m);
  t

let test_transform_fig3_semantics () =
  ignore (check_transform_equiv ~seed:11 (Motivational.fig3 ()) ~latency:3)

let test_transform_chain3_semantics () =
  ignore (check_transform_equiv ~seed:12 (Motivational.chain3 ()) ~latency:3)

let test_transform_preserves_critical_path () =
  let g = Motivational.chain3 () in
  let t = Transform.run g ~latency:3 in
  Alcotest.(check int) "critical unchanged" 18
    (Cp.critical_delta t.Transform.graph);
  let g3 = Motivational.fig3 () in
  let t3 = Transform.run g3 ~latency:3 in
  Alcotest.(check int) "fig3 critical unchanged" 9
    (Cp.critical_delta t3.Transform.graph)

let test_transform_op_counts () =
  let g = Motivational.fig3 () in
  let t = Transform.run g ~latency:3 in
  Alcotest.(check int) "29 additions" 29 (Transform.op_count t)

let test_transform_carry_chain_shape () =
  (* chain3 λ=3: C becomes 3 fragments; the lowest has a carry-out bit and
     the ones above consume it — Fig. 2a's C(6 downto 0) idiom. *)
  let g = Motivational.chain3 () in
  let t = Transform.run g ~latency:3 in
  let tg = t.Transform.graph in
  let find label =
    match
      Graph.fold_nodes
        (fun acc n -> if n.label = label then Some n else acc)
        None tg
    with
    | Some n -> n
    | None -> Alcotest.failf "fragment %s missing" label
  in
  let c0 = find "C[5:0]" in
  Alcotest.(check int) "width includes carry" 7 c0.width;
  Alcotest.(check int) "two operands" 2 (List.length c0.operands);
  let c1 = find "C[11:6]" in
  Alcotest.(check int) "three operands (carry in)" 3 (List.length c1.operands);
  Alcotest.(check int) "middle fragment keeps its carry" 7 c1.width;
  let c2 = find "C[15:12]" in
  Alcotest.(check int) "top fragment has no carry bit" 4 c2.width

let test_transform_windows_cover_fragments () =
  let g = Motivational.fig3 () in
  let t = Transform.run g ~latency:3 in
  Array.iteri
    (fun id (asap, alap) ->
      let n = Graph.node t.Transform.graph id in
      Alcotest.(check bool)
        (Printf.sprintf "window of node %d valid" id)
        true
        (1 <= asap && asap <= alap && alap <= 3);
      if n.kind <> Add then
        Alcotest.(check (pair int int))
          (Printf.sprintf "glue node %d unconstrained" id)
          (1, 3) (asap, alap))
    t.Transform.windows

(* The paper's printed pseudocode assumes uniform bit distributions, which
   holds for standalone operations.  Notably it does NOT reproduce the
   paper's own Fig. 3 decomposition of the *chained* operation B (whose
   consumers C and E tighten the per-bit deadlines): for B it yields two
   mobile fragments, while the prose per-bit-pair description — and our
   bit-level engine — yields the four fragments of Fig. 3 d/f.  We pin the
   pseudocode's actual behaviour here and the prose behaviour in
   test_fig3_fragments above. *)
let test_paper_pseudocode_uniform_window () =
  let frags = Mobility.paper_fragments ~width:6 ~n_bits:3 ~asap:1 ~alap:3 in
  Alcotest.check tuple4 "uniform 6-bit op over 1..3"
    (pairify [ (0, 2, 1, 2); (3, 5, 2, 3) ])
    (pairify (List.map frag_tuple frags))

let test_paper_pseudocode_fig3_a () =
  (* Operation A of Fig. 3 is standalone, and there the pseudocode agrees
     with the paper's worked decomposition: A1..0 (1-2), A2 (1-3),
     A4..3 (2-3). *)
  let frags = Mobility.paper_fragments ~width:5 ~n_bits:3 ~asap:1 ~alap:3 in
  Alcotest.check tuple4 "A"
    (pairify [ (0, 1, 1, 2); (2, 2, 1, 3); (3, 4, 2, 3) ])
    (pairify (List.map frag_tuple frags))

let test_paper_pseudocode_standalone_16 () =
  (* A standalone 16-bit addition at n_bits = 6 over 3 cycles. *)
  let frags = Mobility.paper_fragments ~width:16 ~n_bits:6 ~asap:1 ~alap:3 in
  Alcotest.check tuple4 "16-bit standalone"
    (pairify
       [ (0, 3, 1, 1); (4, 5, 1, 2); (6, 9, 2, 2); (10, 11, 2, 3);
         (12, 15, 3, 3) ])
    (pairify (List.map frag_tuple frags))

let test_paper_pseudocode_rejects () =
  Alcotest.(check bool) "window too small" true
    (match Mobility.paper_fragments ~width:10 ~n_bits:3 ~asap:1 ~alap:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* On standalone operations (inputs ready at cycle start, output
   unconstrained below the deadline) the bit-level engine agrees with the
   paper's uniform pseudocode. *)
let prop_paper_pseudocode_matches_bitlevel =
  QCheck.Test.make ~name:"paper pseudocode ≡ bit-level on standalone ops"
    ~count:100
    QCheck.(pair (int_range 2 24) (int_range 1 6))
    (fun (width, latency) ->
      let b = B.create ~name:"solo" in
      let x = B.input b "x" ~width in
      let y = B.input b "y" ~width in
      let v = B.add b ~width ~label:"op" x y in
      B.output b "o" v;
      let g = B.finish b in
      let plan = Mobility.compute g ~latency in
      let n_bits = plan.Mobility.n_bits in
      let bitlevel = plan.Mobility.per_node.(0) in
      (* The op's window under uniform distribution. *)
      let occupied = Hls_util.Int_math.ceil_div width n_bits in
      let asap = 1 and alap = latency in
      if occupied > latency then true (* cannot happen: n_bits = cp/λ *)
      else
        let paper = Mobility.paper_fragments ~width ~n_bits ~asap ~alap in
        List.map frag_tuple paper = List.map frag_tuple bitlevel)

(* Properties over random kernel-form graphs. *)
let random_kernel_graph ~seed ~size =
  let prng = Hls_util.Prng.create ~seed in
  let b = B.create ~name:"randk" in
  let fresh = ref 0 in
  let values = ref [] in
  let operand w =
    if !values = [] || Hls_util.Prng.int prng 3 = 0 then begin
      incr fresh;
      B.input b (Printf.sprintf "x%d" !fresh) ~width:w
    end
    else begin
      let v = Hls_util.Prng.pick prng !values in
      let w = Hls_dfg.Operand.width v in
      if w > 2 && Hls_util.Prng.int prng 3 = 0 then
        (* Random sub-slice, exercising truncation penalties. *)
        let lo = Hls_util.Prng.int prng (w - 1) in
        let hi = lo + Hls_util.Prng.int prng (w - lo) in
        Hls_dfg.Operand.reslice v ~hi ~lo
      else v
    end
  in
  for _ = 1 to size do
    let w = 2 + Hls_util.Prng.int prng 14 in
    let v = B.add b ~width:w (operand w) (operand w) in
    values := v :: !values
  done;
  List.iteri (fun i v -> B.output b (Printf.sprintf "o%d" i) v) !values;
  B.finish b

let prop_fragments_partition =
  QCheck.Test.make ~name:"fragments partition each op's bits" ~count:100
    QCheck.(pair (int_range 0 10000) (int_range 1 5))
    (fun (seed, latency) ->
      if latency < 1 then true
      else
      let g = random_kernel_graph ~seed ~size:8 in
      let plan = Mobility.compute g ~latency in
      Graph.fold_nodes
        (fun acc n ->
          acc
          &&
          let frags = plan.Mobility.per_node.(n.id) in
          match n.kind with
          | Add ->
              let widths =
                Hls_util.List_ext.sum_by Mobility.frag_width frags
              in
              let costly_bits (f : Mobility.frag) =
                List.length
                  (List.filter
                     (fun bit ->
                       fst (Hls_timing.Bitdep.bit_deps g n bit) > 0)
                     (Hls_util.List_ext.range f.f_lo (f.f_hi + 1)))
              in
              widths = n.width
              && List.for_all
                   (fun (f : Mobility.frag) ->
                     f.f_asap <= f.f_alap
                     (* only δ-costly bits count against the budget: runs of
                        pure carry bits are free *)
                     && costly_bits f <= plan.Mobility.n_bits
                     && f.f_alap <= latency)
                   frags
              (* consecutive fragments have distinct mobilities and rising
                 windows *)
              && (match frags with
                 | [] -> false
                 | first :: rest ->
                     fst
                       (List.fold_left
                          (fun (ok, (prev : Mobility.frag)) (f : Mobility.frag) ->
                            ( ok
                              && (prev.f_asap, prev.f_alap)
                                 <> (f.f_asap, f.f_alap)
                              && prev.f_asap <= f.f_asap
                              && prev.f_alap <= f.f_alap
                              && prev.f_hi + 1 = f.f_lo,
                              f ))
                          (true, first) rest))
          | _ -> frags = [])
        true g)

let prop_transform_preserves_semantics =
  QCheck.Test.make ~name:"transform preserves random kernel DAGs" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 1 5))
    (fun (seed, latency) ->
      if latency < 1 then true
      else
      let g = random_kernel_graph ~seed ~size:8 in
      let t = Transform.run g ~latency in
      Hls_fuzz.Diff.sampled g t.Transform.graph ~vectors:20
        ~prng:(Hls_util.Prng.create ~seed:(seed + 7))
      = Ok ())

let prop_transform_preserves_critical =
  QCheck.Test.make ~name:"transform preserves critical path" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 1 5))
    (fun (seed, latency) ->
      if latency < 1 then true
      else
        let g = random_kernel_graph ~seed ~size:8 in
        let t = Transform.run g ~latency in
        Cp.critical_delta t.Transform.graph = Cp.critical_delta g)

let prop_lowered_behavioural_graphs_fragment =
  QCheck.Test.make
    ~name:"kernel extraction + fragmentation preserves behavioural DAGs"
    ~count:40
    QCheck.(pair (int_range 0 10000) (int_range 2 5))
    (fun (seed, latency) ->
      if latency < 1 then true
      else
      (* Reuse the kernel test generator shape: subs and muls mixed. *)
      let prng = Hls_util.Prng.create ~seed in
      let b = B.create ~name:"beh" in
      let x = B.input b "x" ~width:(4 + Hls_util.Prng.int prng 5) in
      let y = B.input b "y" ~width:(4 + Hls_util.Prng.int prng 5) in
      let s = B.sub b ~width:8 x y in
      let m =
        B.mul b ~width:10 (Hls_dfg.Operand.reslice s ~hi:5 ~lo:0) y
      in
      let t = B.add b ~width:10 m s in
      B.output b "o" t;
      let g = B.finish b in
      let kernel = Extract.run g in
      let tr = Transform.run kernel ~latency in
      Hls_fuzz.Diff.sampled g tr.Transform.graph ~vectors:25
        ~prng:(Hls_util.Prng.create ~seed:(seed + 3))
      = Ok ())

(* Re-planning against the previous latency's transform: [apply ~like]
   answers exactly what a fresh [apply] answers (graph digest, windows,
   plan), and hands back the earlier graph itself exactly when every node
   is cut at the same bits.  Every catalog workload, λ 2–22, both
   policies; each reuse is the [like] of the next latency. *)
let test_apply_like_matches_fresh () =
  let module Catalog = Hls_workloads.Catalog in
  let cuts (p : Mobility.plan) =
    Array.map
      (List.map (fun (f : Mobility.frag) -> (f.f_lo, f.f_hi)))
      p.Mobility.per_node
  in
  let shared = ref 0 and rebuilt = ref 0 in
  List.iter
    (fun e ->
      let kernel = Extract.run (Catalog.graph e) in
      let net = Hls_timing.Bitnet.build kernel in
      let arrival = Hls_timing.Arrival.of_net net in
      List.iter
        (fun policy ->
          let prev = ref None in
          for latency = 2 to 22 do
            match Mobility.compute ~policy ~net ~arrival kernel ~latency with
            | exception Invalid_argument _ -> prev := None
            | plan ->
                let fresh = Transform.apply kernel plan in
                let tag =
                  Printf.sprintf "%s λ%d %s" e.Catalog.name latency
                    (Hls_dse.Space.policy_name policy)
                in
                (match !prev with
                | None -> prev := Some fresh
                | Some (like : Transform.t) ->
                    let tr = Transform.apply ~like kernel plan in
                    Alcotest.(check string) (tag ^ " digest")
                      (Graph.digest fresh.graph) (Graph.digest tr.graph);
                    Alcotest.(check bool) (tag ^ " windows") true
                      (fresh.windows = tr.windows);
                    Alcotest.(check bool) (tag ^ " plan") true
                      (tr.plan == plan);
                    let same = cuts like.plan = cuts plan in
                    Alcotest.(check bool) (tag ^ " shared iff same cuts") same
                      (tr.graph == like.graph);
                    incr (if same then shared else rebuilt);
                    prev := Some tr)
          done)
        [ `Full; `Coalesced ])
    (Catalog.all ());
  Alcotest.(check bool) "some graphs shared" true (!shared > 0);
  Alcotest.(check bool) "some graphs rebuilt" true (!rebuilt > 0)

(* --- the one-pass transform against the pre-rewrite oracle --- *)

module Bitnet = Hls_timing.Bitnet
module Transform_oracle = Hls_oracle.Transform_oracle

(* Every array of two nets, compared by value. *)
let nets_equal (a : Bitnet.t) (b : Bitnet.t) =
  a.bit_base = b.bit_base && a.cost = b.cost
  && a.costly_prefix = b.costly_prefix && a.dep_off = b.dep_off
  && a.deps = b.deps && a.rdep_off = b.rdep_off && a.rdeps = b.rdeps

(* A transform answers exactly what the pre-rewrite build answers for its
   source and plan (graph digest, windows, window sources), and carries
   the net of its own graph, equal array for array to [Bitnet.build]. *)
let one_pass_mismatch (tr : Transform.t) =
  let o = Transform_oracle.build tr.source tr.plan in
  if Graph.digest tr.graph <> Graph.digest o.graph then Some "graph digest"
  else if tr.windows <> o.windows then Some "windows"
  else if tr.window_srcs <> o.window_srcs then Some "window sources"
  else if tr.net.graph != tr.graph then Some "net of another graph"
  else if not (nets_equal tr.net (Bitnet.build tr.graph)) then Some "net"
  else None

let check_one_pass tag tr =
  match one_pass_mismatch tr with
  | None -> ()
  | Some what -> Alcotest.failf "%s: %s differs from the oracle" tag what

(* Every catalog workload, λ 2–22, both policies, fresh; the [`Full]
   walk also re-plans each latency against the previous one ([~like]),
   where a shared graph must come with the shared net.  Then 50 designs
   of the cold benchmark's shape (the standard recipe, λ 3–4) through
   the whole flow; designs the flow rejects are skipped, not counted. *)
let test_one_pass_matches_oracle () =
  let module Catalog = Hls_workloads.Catalog in
  List.iter
    (fun e ->
      let kernel = Extract.run (Catalog.graph e) in
      let net = Bitnet.build kernel in
      let arrival = Hls_timing.Arrival.of_net net in
      List.iter
        (fun policy ->
          let prev = ref None in
          for latency = 2 to 22 do
            match Mobility.compute ~policy ~net ~arrival kernel ~latency with
            | exception Invalid_argument _ -> prev := None
            | plan ->
                let tag =
                  Printf.sprintf "%s λ%d %s" e.Catalog.name latency
                    (Hls_dse.Space.policy_name policy)
                in
                check_one_pass tag (Transform.apply kernel plan);
                if policy = `Full then begin
                  let tr = Transform.apply ?like:!prev kernel plan in
                  check_one_pass (tag ^ " ~like") tr;
                  Option.iter
                    (fun (like : Transform.t) ->
                      if tr.graph == like.graph && tr.net != like.net then
                        Alcotest.failf "%s: shared graph, fresh net" tag)
                    !prev;
                  prev := Some tr
                end
          done)
        [ `Full; `Coalesced ])
    (Catalog.all ());
  let module P = Hls_core.Pipeline in
  let profile =
    { Hls_fuzz.Gen.default_profile with
      n_inputs = 5; n_stmts = 14; n_outputs = 3; depth = 3; max_width = 16 }
  in
  let cfg =
    P.make_config ~transform:(Hls_xform.Recipe.of_string_exn "standard") ()
  in
  let prng = Hls_util.Prng.create ~seed:23 in
  let checked = ref 0 and drawn = ref 0 in
  while !checked < 50 do
    incr drawn;
    if !drawn > 500 then
      Alcotest.failf "only %d of %d generated designs ran" !checked !drawn;
    let src = Hls_fuzz.Gen.source prng profile in
    let latency = 3 + Hls_util.Prng.int prng 2 in
    match Hls_speclang.Elaborate.from_string_result src with
    | Error _ -> ()
    | Ok g -> (
        match P.run_graph cfg g ~latency with
        | Error _ -> ()
        | Ok r ->
            check_one_pass
              (Printf.sprintf "design %d" !drawn)
              r.P.transformed;
            incr checked)
  done

(* The flat plan against the per-query reference
   ([Hls_oracle.Timing_oracle.mobility], the list-based fragment runs):
   the same plan — or both infeasible — on every catalog workload,
   λ 2–22, both policies. *)
let test_mobility_matches_oracle () =
  let module Catalog = Hls_workloads.Catalog in
  let plan_of f = match f () with p -> Ok p | exception Invalid_argument _ -> Error () in
  let same (a : Mobility.plan) (b : Mobility.plan) =
    a.latency = b.latency && a.n_bits = b.n_bits && a.critical = b.critical
    && a.per_node = b.per_node
  in
  List.iter
    (fun e ->
      let kernel = Extract.run (Catalog.graph e) in
      List.iter
        (fun policy ->
          for latency = 2 to 22 do
            match
              ( plan_of (fun () -> Mobility.compute ~policy kernel ~latency),
                plan_of (fun () ->
                    Hls_oracle.Timing_oracle.mobility ~policy kernel ~latency) )
            with
            | Ok p, Ok r when same p r -> ()
            | Error (), Error () -> ()
            | _ ->
                Alcotest.failf "%s λ%d %s: plan differs from the oracle"
                  e.Catalog.name latency
                  (Hls_dse.Space.policy_name policy)
          done)
        [ `Full; `Coalesced ])
    (Catalog.all ())

(* Random behavioural DAGs (subtractions, multiplications and
   comparisons, so sign-extending slices and carry ins occur) through
   kernel extraction, at a random latency and policy. *)
let prop_one_pass_matches_oracle =
  QCheck.Test.make ~name:"one-pass == oracle, random kernels" ~count:60
    QCheck.(triple (int_range 0 10_000) (int_range 1 8) bool)
    (fun (seed, latency, coalesced) ->
      let profile =
        { Hls_workloads.Random_dfg.default_profile with
          ops = 12 + (seed mod 20); mul_ratio = 8; cmp_ratio = 7 }
      in
      let kernel =
        Extract.run (Hls_workloads.Random_dfg.generate ~profile ~seed ())
      in
      let policy = if coalesced then `Coalesced else `Full in
      match Mobility.compute ~policy kernel ~latency with
      | exception Invalid_argument _ -> true
      | plan -> one_pass_mismatch (Transform.apply kernel plan) = None)

let suite =
  [
    Alcotest.test_case "fig3 fragments (paper)" `Quick test_fig3_fragments;
    Alcotest.test_case "chain3 fragments (Fig 2)" `Quick test_chain3_fragments;
    Alcotest.test_case "fragment counts" `Quick test_fragment_counts;
    Alcotest.test_case "λ=1: no fragmentation" `Quick
      test_single_cycle_no_fragmentation;
    Alcotest.test_case "infeasible budget rejected" `Quick
      test_infeasible_budget_rejected;
    Alcotest.test_case "transform fig3 semantics" `Quick
      test_transform_fig3_semantics;
    Alcotest.test_case "transform chain3 semantics" `Quick
      test_transform_chain3_semantics;
    Alcotest.test_case "transform preserves critical path" `Quick
      test_transform_preserves_critical_path;
    Alcotest.test_case "transform op counts" `Quick test_transform_op_counts;
    Alcotest.test_case "carry chain shape" `Quick
      test_transform_carry_chain_shape;
    Alcotest.test_case "windows cover fragments" `Quick
      test_transform_windows_cover_fragments;
    Alcotest.test_case "paper pseudocode: uniform window" `Quick
      test_paper_pseudocode_uniform_window;
    Alcotest.test_case "paper pseudocode: Fig 3 A" `Quick
      test_paper_pseudocode_fig3_a;
    Alcotest.test_case "paper pseudocode: standalone 16-bit" `Quick
      test_paper_pseudocode_standalone_16;
    Alcotest.test_case "paper pseudocode: rejects" `Quick
      test_paper_pseudocode_rejects;
    Alcotest.test_case "apply ~like = fresh apply" `Slow
      test_apply_like_matches_fresh;
    Alcotest.test_case "one-pass == oracle" `Slow
      test_one_pass_matches_oracle;
    Alcotest.test_case "mobility == oracle" `Slow
      test_mobility_matches_oracle;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_paper_pseudocode_matches_bitlevel;
        prop_fragments_partition;
        prop_transform_preserves_semantics;
        prop_transform_preserves_critical;
        prop_lowered_behavioural_graphs_fragment;
        prop_one_pass_matches_oracle;
      ]
