(* Feedback-guided iterative scheduling (lib/iter) and the incremental
   timing layer underneath it: QCheck bit-identity of dirty-region net
   rebuilds and arrival updates against from-scratch, monotone
   non-worsening convergence of the iteration driver on every registry
   workload, critical-region extraction invariants, and one net and one
   schedule per re-planning round. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module P = Hls_core.Pipeline
module Rdfg = Hls_workloads.Random_dfg
module Bitnet = Hls_timing.Bitnet
module Arrival = Hls_timing.Arrival
module Frag_sched = Hls_sched.Frag_sched
module Iter = Hls_iter.Iter
module Subgraph = Hls_iter.Subgraph

let kernel_of_seed ?(lanes = 2) ?(ops = 32) seed =
  let profile =
    { Rdfg.default_profile with ops; mul_ratio = 8; cmp_ratio = 7; lanes }
  in
  P.prepare_kernel (Rdfg.generate ~profile ~seed ())

(* --- incremental net rebuild + arrival update: bit-identity --- *)

(* A single-node edit that changes the node's dependency rows but keeps
   the flat bit layout: flip a two-operand Add/Sub to Mul or a Mul to
   Add.  (Add and Sub share the adder timing model, so flipping between
   them would be a vacuous test.)  Returns [None] when the graph has no
   eligible node at or after the cursor. *)
let edit_one g cursor =
  let n_nodes = Graph.node_count g in
  if n_nodes = 0 then None
  else
    let rec find k left =
      if left = 0 then None
      else
        let n = Graph.node g (k mod n_nodes) in
        match (n.kind, n.operands) with
        | (Add | Sub), [ _; _ ] | Mul, [ _; _ ] -> Some n
        | _ -> find (k + 1) (left - 1)
    in
    match find (cursor mod n_nodes) n_nodes with
    | None -> None
    | Some n ->
        let kind = match n.kind with Mul -> Add | _ -> Mul in
        let nodes = Array.copy g.Graph.nodes in
        nodes.(n.id) <- { n with kind };
        Some
          ( { g with Graph.nodes; cached_index = Atomic.make None },
            n.id )

let prop_rebuild_dirty_identity =
  QCheck.Test.make ~name:"rebuild_dirty == build after single-node edit"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (seed, cursor) ->
      let g = kernel_of_seed seed in
      let net = Bitnet.build g in
      match edit_one g cursor with
      | None -> true
      | Some (g', id) -> (
          let scratch = Bitnet.build g' in
          match Bitnet.rebuild_dirty net g' ~dirty:[ id ] with
          | None -> false (* layout unchanged: must not fall back *)
          | Some incr -> Test_fragment.nets_equal scratch incr))

let prop_update_of_net_identity =
  QCheck.Test.make ~name:"update_of_net == of_net after single-node edit"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (seed, cursor) ->
      let g = kernel_of_seed seed in
      let net = Bitnet.build g in
      let arr = Arrival.of_net net in
      match edit_one g cursor with
      | None -> true
      | Some (g', id) -> (
          match Bitnet.rebuild_dirty net g' ~dirty:[ id ] with
          | None -> false
          | Some net' ->
              Arrival.flat_slots (Arrival.update_of_net net' arr ~dirty:[ id ])
              = Arrival.flat_slots (Arrival.of_net net')))

(* A no-op edit (empty dirty set on the same graph) must be a verbatim
   rebuild, and a layout-moving edit must be refused. *)
let test_rebuild_dirty_edges () =
  let g = kernel_of_seed 7 in
  let net = Bitnet.build g in
  (match Bitnet.rebuild_dirty net g ~dirty:[] with
  | Some net' ->
      Alcotest.(check bool) "empty dirty set is identity" true
        (Test_fragment.nets_equal net net')
  | None -> Alcotest.fail "empty dirty set refused");
  let nodes = Array.copy g.Graph.nodes in
  let n = nodes.(0) in
  nodes.(0) <- { n with width = n.width + 1 };
  let moved = { g with Graph.nodes; cached_index = Atomic.make None } in
  Alcotest.(check bool) "width change refused" true
    (Bitnet.rebuild_dirty net moved ~dirty:[ 0 ] = None)

(* --- iteration: monotone non-worsening on every registry workload --- *)

(* A latency with deliberate slack above the minimal one for its clock
   tier, so iteration has room to claw cycles back. *)
let slack_latency p =
  let critical = Arrival.critical_delta p.P.p_arrival in
  let tier = max 2 (Hls_util.Int_math.ceil_div critical 6) in
  Hls_util.Int_math.ceil_div critical tier + 4

let iterated_outcomes () =
  List.filter_map
    (fun e ->
      let name = e.Hls_workloads.Catalog.name in
      let g = Hls_workloads.Catalog.graph e in
      let p = P.prepare g in
      let latency = slack_latency p in
      let config = P.make_config ~iterate:12 () in
      match P.run_iterated config p ~latency with
      | Ok (r, o) -> Some (name, r, o)
      | Error (Hls_util.Failure.Infeasible _) -> None
      | Error f -> Alcotest.fail (name ^ ": " ^ Hls_util.Failure.to_string f))
    (Hls_workloads.Catalog.all ())

let test_iterate_monotone () =
  let outcomes = iterated_outcomes () in
  Alcotest.(check bool) "some workload ran" true (outcomes <> []);
  List.iter
    (fun (name, r, o) ->
      Alcotest.(check bool)
        (name ^ ": cycles never worse") true
        (o.Iter.o_final_latency <= o.Iter.o_initial_latency);
      Alcotest.(check bool)
        (name ^ ": chain never worse") true
        (o.Iter.o_final_delta <= max 1 o.Iter.o_initial_delta);
      Alcotest.(check int)
        (name ^ ": bound schedule is the iterated one")
        o.Iter.o_final_latency r.P.schedule.Frag_sched.latency;
      (match Frag_sched.verify o.Iter.o_schedule with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": final schedule invalid: " ^ e));
      (* The audit log is coherent: accepted rounds strictly descend. *)
      let rec descending lat = function
        | [] -> true
        | r :: tl ->
            if r.Iter.r_accepted then
              r.Iter.r_latency = lat - 1 && descending r.Iter.r_latency tl
            else r.Iter.r_latency = lat && tl = []
      in
      Alcotest.(check bool)
        (name ^ ": audit log descends") true
        (descending o.Iter.o_initial_latency o.Iter.o_rounds))
    outcomes

let test_iterate_improves_somewhere () =
  let improved =
    List.filter
      (fun (_, _, o) -> o.Iter.o_final_latency < o.Iter.o_initial_latency)
      (iterated_outcomes ())
  in
  (* The acceptance bar of the subsystem: at a latency with slack, the
     loop claws back cycles on at least two registry workloads. *)
  Alcotest.(check bool)
    (Printf.sprintf "iteration improves >= 2 workloads (got %d)"
       (List.length improved))
    true
    (List.length improved >= 2)

let prop_iterate_random_monotone =
  QCheck.Test.make ~name:"iterate monotone on random kernels" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = kernel_of_seed ~ops:40 seed in
      let p = P.prepared_of_kernel g in
      let latency = slack_latency p in
      match
        P.run_iterated (P.make_config ~iterate:6 ()) p ~latency
      with
      | Error (Hls_util.Failure.Infeasible _) -> true
      | Error _ -> false
      | Ok (_, o) ->
          o.Iter.o_final_latency <= o.Iter.o_initial_latency
          && o.Iter.o_final_delta <= max 1 o.Iter.o_initial_delta
          && Frag_sched.verify o.Iter.o_schedule = Ok ())

(* --- critical-region extraction invariants --- *)

let test_extraction_invariants () =
  let g = Option.get (Hls_workloads.Catalog.find_graph "fir8") in
  let p = P.prepare g in
  let latency = slack_latency p in
  let config = P.default_config in
  match P.run config p ~latency with
  | Error f -> Alcotest.fail (Hls_util.Failure.to_string f)
  | Ok r ->
      let s = r.P.schedule in
      let target = s.Frag_sched.latency - 1 in
      let sg = Subgraph.extract s ~target in
      List.iter
        (fun id ->
          Alcotest.(check bool) "members are marked" true (Subgraph.mem sg id))
        sg.Subgraph.nodes;
      (* The witness chain is a real tight chain: settle times ascend by
         exactly the δ cost of each link, within one cycle. *)
      let rec check_chain = function
        | (a_id, a_bit) :: ((b_id, b_bit) :: _ as tl) ->
            let ta = Frag_sched.bit_time s a_id a_bit in
            let tb = Frag_sched.bit_time s b_id b_bit in
            let cost =
              Bitnet.cost_of s.Frag_sched.net ~id:b_id ~bit:b_bit
            in
            Alcotest.(check int) "witness same cycle" ta.Frag_sched.bt_cycle
              tb.Frag_sched.bt_cycle;
            Alcotest.(check int) "witness tight link"
              (ta.Frag_sched.bt_slot + cost)
              tb.Frag_sched.bt_slot;
            check_chain tl
        | _ -> ()
      in
      check_chain sg.Subgraph.witness

(* --- one net per fragmented graph, built with it --- *)

let rec first_feasible kernel latency =
  if latency > 64 then None
  else
    match Hls_fragment.Transform.run kernel ~latency with
    | tr -> Some tr
    | exception Invalid_argument _ -> first_feasible kernel (latency + 1)

(* The net a transform carries is the net of its own graph — the one the
   scheduler and every re-planning round read — and equals a separate
   [Bitnet.build] of that graph, array for array, on random kernels at
   their tightest latency and with slack. *)
let prop_transform_net =
  QCheck.Test.make ~name:"transform net == Bitnet.build" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, slack) ->
      match first_feasible (kernel_of_seed seed) 1 with
      | None -> true
      | Some tr0 ->
          let latency =
            tr0.Hls_fragment.Transform.plan.Hls_fragment.Mobility.latency
            + slack
          in
          let tr = Hls_fragment.Transform.run (kernel_of_seed seed) ~latency in
          tr.net.Bitnet.graph == tr.graph
          && Test_fragment.nets_equal tr.net (Bitnet.build tr.graph))

(* As the iteration driver re-plans: a fresh transform, the same plan
   applied again and a re-plan at another latency each carry the net of
   their own graph, equal to [Bitnet.build] of it; a re-plan handing back
   the incumbent's graph hands back its net too. *)
let test_transform_carries_net () =
  let g = Option.get (Hls_workloads.Catalog.find_graph "fir8") in
  let kernel = (P.prepare g).P.p_kernel in
  let module Transform = Hls_fragment.Transform in
  let tr = Transform.run kernel ~latency:8 in
  let rebuilt = Transform.apply kernel tr.Transform.plan in
  let other = Transform.run ~like:tr kernel ~latency:4 in
  List.iter
    (fun (what, (t : Transform.t)) ->
      Alcotest.(check bool) (what ^ ": net of its graph") true
        (t.net.Bitnet.graph == t.graph);
      Alcotest.(check bool) (what ^ ": net == Bitnet.build") true
        (Test_fragment.nets_equal t.net (Bitnet.build t.graph)))
    [ ("fresh", tr); ("a rebuilt graph", rebuilt);
      ("another latency's graph", other) ];
  let again = Transform.run ~like:tr kernel ~latency:8 in
  Alcotest.(check bool) "shared graph, shared net" true
    (again.graph == tr.graph && again.net == tr.net)

(* An armed iterate names the insides of each round: one iter.extract
   and one iter.witness per round, one iter.replan per round that got
   past the witness, and exactly one iter.schedule per re-plan (a round
   schedules once).  random240 is here because its accepted rounds at
   λ 14 move fragments outside the critical region, where a second,
   fallback attempt would show. *)
let test_round_spans () =
  let module Tm = Hls_telemetry in
  let calls name =
    match List.assoc_opt name (Tm.span_totals ()) with
    | Some (c, _) -> c
    | None -> 0
  in
  List.iter
    (fun name ->
      let p = P.prepare (Option.get (Hls_workloads.Catalog.find_graph name)) in
      Fun.protect
        ~finally:(fun () ->
          Tm.disarm ();
          Tm.reset ())
      @@ fun () ->
      Tm.reset ();
      Tm.arm ();
      match P.run_iterated (P.make_config ~iterate:8 ()) p ~latency:14 with
      | Error f -> Alcotest.fail (Hls_util.Failure.to_string f)
      | Ok (_, o) ->
          let rounds = List.length o.Iter.o_rounds in
          let certified = if o.Iter.o_stop = Iter.Certified then 1 else 0 in
          (* A greedy-stuck round may have failed at its re-plan or at its
             schedule; these workloads stop otherwise, so the count of
             rounds that reached scheduling is exact. *)
          Alcotest.(check bool) (name ^ ": not greedy-stuck") true
            (o.Iter.o_stop <> Iter.Greedy_stuck);
          Alcotest.(check bool) (name ^ ": some rounds") true (rounds >= 2);
          Alcotest.(check int) (name ^ ": iter.round") rounds
            (calls "iter.round");
          Alcotest.(check int) (name ^ ": iter.extract") rounds
            (calls "iter.extract");
          Alcotest.(check int) (name ^ ": iter.witness") rounds
            (calls "iter.witness");
          Alcotest.(check int) (name ^ ": iter.replan") (rounds - certified)
            (calls "iter.replan");
          Alcotest.(check int) (name ^ ": iter.schedule") (rounds - certified)
            (calls "iter.schedule"))
    [ "fir8"; "random240" ]

let suite =
  [
    Alcotest.test_case "rebuild_dirty edge cases" `Quick
      test_rebuild_dirty_edges;
    Alcotest.test_case "iterate monotone on registry" `Slow
      test_iterate_monotone;
    Alcotest.test_case "iterate improves >= 2 registry workloads" `Slow
      test_iterate_improves_somewhere;
    Alcotest.test_case "extraction invariants" `Quick
      test_extraction_invariants;
    Alcotest.test_case "round spans" `Quick test_round_spans;
    Alcotest.test_case "transform carries its own net" `Quick
      test_transform_carries_net;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_rebuild_dirty_identity;
        prop_update_of_net_identity;
        prop_iterate_random_monotone;
        prop_transform_net;
      ]
