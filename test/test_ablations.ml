module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)
module Mobility = Hls_fragment.Mobility
module Transform = Hls_fragment.Transform
module Frag_sched = Hls_sched.Frag_sched
module Op_delay = Hls_sched.Op_delay
module Motivational = Hls_workloads.Motivational
module Benchmarks = Hls_workloads.Benchmarks

(* --- fragmentation policy --- *)

let test_coalesced_chain3_identical () =
  (* chain3's fragments are all fixed; coalescing changes nothing. *)
  let g = Motivational.chain3 () in
  let full = Mobility.compute g ~latency:3 in
  let co = Mobility.compute ~policy:`Coalesced g ~latency:3 in
  Alcotest.(check int) "same count" (Mobility.fragment_count full)
    (Mobility.fragment_count co)

let test_coalesced_reduces_fragments () =
  let g = Hls_kernel.Extract.run (Benchmarks.fir2 ()) in
  let full = Mobility.compute g ~latency:3 in
  let co = Mobility.compute ~policy:`Coalesced g ~latency:3 in
  Alcotest.(check bool) "fewer or equal" true
    (Mobility.fragment_count co <= Mobility.fragment_count full)

let test_coalesced_partitions () =
  let g = Hls_kernel.Extract.run (Benchmarks.fir2 ()) in
  let plan = Mobility.compute ~policy:`Coalesced g ~latency:3 in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      let frags = plan.Mobility.per_node.(n.Hls_dfg.Types.id) in
      if n.Hls_dfg.Types.kind = Hls_dfg.Types.Add then begin
        Alcotest.(check int)
          (Printf.sprintf "node %d widths" n.Hls_dfg.Types.id)
          n.Hls_dfg.Types.width
          (Hls_util.List_ext.sum_by Mobility.frag_width frags);
        List.iter
          (fun (f : Mobility.frag) ->
            Alcotest.(check bool) "window valid" true
              (1 <= f.f_asap && f.f_asap <= f.f_alap && f.f_alap <= 3))
          frags
      end)
    g

let test_coalesced_preserves_semantics () =
  let g = Benchmarks.fir2 () in
  let opt = optimized ~policy:`Coalesced g ~latency:3 in
  (match P.check_optimized_equivalence ~trials:60 g opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "coalesced changed semantics: %s" m);
  match Frag_sched.verify opt.P.schedule with
  | Ok () -> ()
  | Error m -> Alcotest.failf "coalesced schedule invalid: %s" m

let test_coalesced_same_cycle_budget () =
  let g = Benchmarks.fir2 () in
  let full = optimized g ~latency:3 in
  let co = optimized ~policy:`Coalesced g ~latency:3 in
  Alcotest.(check int) "same estimated cycle"
    full.P.opt_report.P.cycle_delta co.P.opt_report.P.cycle_delta

(* Coalescing may be globally infeasible (elliptic at λ=6); the scheduler
   must report it rather than produce a broken schedule. *)
let test_coalesced_infeasibility_is_detected () =
  let g = Hls_kernel.Extract.run (Benchmarks.elliptic ()) in
  match
    Frag_sched.schedule (Transform.run ~policy:`Coalesced g ~latency:6)
  with
  | s -> (
      (* If it does schedule, it must verify and simulate correctly. *)
      match Frag_sched.verify s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "scheduled but invalid: %s" m)
  | exception Frag_sched.Infeasible _ -> ()

(* --- scheduler balancing --- *)

let test_unbalanced_schedules_verify () =
  List.iter
    (fun (g, latency) ->
      let opt = optimized ~balance:false g ~latency in
      (match Frag_sched.verify opt.P.schedule with
      | Ok () -> ()
      | Error m -> Alcotest.failf "asap schedule invalid: %s" m);
      match P.check_optimized_equivalence ~trials:20 g opt with
      | Ok () -> ()
      | Error m -> Alcotest.failf "asap schedule changed semantics: %s" m)
    [
      (Motivational.chain3 (), 3);
      (Motivational.fig3 (), 3);
      (Benchmarks.fir2 (), 3);
    ]

let test_balancing_reduces_peak () =
  (* Peak per-cycle adder bits with balancing <= without. *)
  let peak s =
    let g = Frag_sched.graph s in
    List.fold_left
      (fun acc cycle ->
        max acc
          (Hls_util.List_ext.sum_by
             (fun (n : Hls_dfg.Types.node) -> n.Hls_dfg.Types.width)
             (Frag_sched.adds_in_cycle s cycle)))
      0
      (Hls_util.List_ext.range 1 (s.Frag_sched.latency + 1))
    |> fun p ->
    ignore g;
    p
  in
  let g = Motivational.fig3 () in
  let balanced = (optimized ~balance:true g ~latency:3).P.schedule in
  let asap = (optimized ~balance:false g ~latency:3).P.schedule in
  Alcotest.(check bool) "balanced peak <= asap peak" true
    (peak balanced <= peak asap)

(* --- library-aware op delays --- *)

let test_delay_with_ripple_matches_default () =
  let g = Motivational.chain3 () in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      Alcotest.(check int) "ripple = default" (Op_delay.delay n)
        (Op_delay.delay_with ~lib:Hls_techlib.default n))
    g

let test_delay_with_cla_shrinks () =
  let g = Motivational.chain3 () in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      Alcotest.(check int) "16-bit CLA add" 10
        (Op_delay.delay_with ~lib:Hls_techlib.fast_cla n))
    g

let test_cla_conventional_faster () =
  let g = Motivational.chain3 () in
  let ripple = P.conventional ~lib:Hls_techlib.default g ~latency:3 in
  let cla = P.conventional ~lib:Hls_techlib.fast_cla g ~latency:3 in
  Alcotest.(check bool) "CLA cycle shorter" true
    (cla.P.cycle_ns < ripple.P.cycle_ns);
  Alcotest.(check bool) "CLA area bigger" true
    (cla.P.area.Hls_alloc.Datapath.fu_gates
    > ripple.P.area.Hls_alloc.Datapath.fu_gates)

let test_cla_narrows_but_keeps_gain () =
  let g = Motivational.chain3 () in
  let conv = P.conventional ~lib:Hls_techlib.fast_cla g ~latency:3 in
  let opt = optimized ~lib:Hls_techlib.fast_cla g ~latency:3 in
  let saving =
    P.pct_saved ~original:conv.P.cycle_ns
      ~optimized:opt.P.opt_report.P.cycle_ns
  in
  let conv_r = P.conventional g ~latency:3 in
  let opt_r = optimized g ~latency:3 in
  let saving_ripple =
    P.pct_saved ~original:conv_r.P.cycle_ns
      ~optimized:opt_r.P.opt_report.P.cycle_ns
  in
  Alcotest.(check bool) "still saves" true (saving > 20.);
  Alcotest.(check bool) "narrower than ripple" true (saving < saving_ripple)

(* --- capped deadlines --- *)

let test_deadline_caps_tighten () =
  let g = Motivational.chain3 () in
  let free = Hls_timing.Deadline.compute g ~total_slots:18 in
  let capped =
    Hls_timing.Deadline.compute g ~total_slots:18 ~caps:(fun _ _ -> 6)
  in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      List.iter
        (fun bit ->
          let f = Hls_timing.Deadline.slot free ~id:n.Hls_dfg.Types.id ~bit in
          let c = Hls_timing.Deadline.slot capped ~id:n.Hls_dfg.Types.id ~bit in
          Alcotest.(check bool) "capped <= free" true (c <= f);
          Alcotest.(check bool) "capped <= cap" true (c <= 6))
        (Hls_util.List_ext.range 0 n.Hls_dfg.Types.width))
    g

(* Property: coalesced transforms that schedule are always bit-true. *)
let prop_coalesced_sound =
  QCheck.Test.make ~name:"coalesced policy sound when schedulable" ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 1 5))
    (fun (seed, latency) ->
      if latency < 1 then true
      else begin
        let g =
          Hls_kernel.Extract.run
            (Hls_workloads.Random_dfg.generate
               ~profile:Hls_workloads.Random_dfg.additive_profile ~seed ())
        in
        match Transform.run ~policy:`Coalesced g ~latency with
        | tr -> (
            match Frag_sched.schedule tr with
            | s ->
                Frag_sched.verify s = Ok ()
                && Hls_fuzz.Diff.sampled g tr.Transform.graph ~vectors:15
                     ~prng:(Hls_util.Prng.create ~seed:(seed + 5))
                   = Ok ()
            | exception Frag_sched.Infeasible _ -> true)
        | exception _ -> false
      end)

let suite =
  [
    Alcotest.test_case "coalesced: chain3 identical" `Quick
      test_coalesced_chain3_identical;
    Alcotest.test_case "coalesced: reduces fragments" `Quick
      test_coalesced_reduces_fragments;
    Alcotest.test_case "coalesced: partitions bits" `Quick
      test_coalesced_partitions;
    Alcotest.test_case "coalesced: preserves semantics" `Quick
      test_coalesced_preserves_semantics;
    Alcotest.test_case "coalesced: same cycle budget" `Quick
      test_coalesced_same_cycle_budget;
    Alcotest.test_case "coalesced: infeasibility detected" `Quick
      test_coalesced_infeasibility_is_detected;
    Alcotest.test_case "unbalanced schedules verify" `Quick
      test_unbalanced_schedules_verify;
    Alcotest.test_case "balancing reduces peak" `Quick
      test_balancing_reduces_peak;
    Alcotest.test_case "delay_with: ripple = default" `Quick
      test_delay_with_ripple_matches_default;
    Alcotest.test_case "delay_with: CLA shrinks" `Quick
      test_delay_with_cla_shrinks;
    Alcotest.test_case "CLA conventional faster" `Quick
      test_cla_conventional_faster;
    Alcotest.test_case "CLA narrows but keeps gain" `Quick
      test_cla_narrows_but_keeps_gain;
    Alcotest.test_case "deadline caps tighten" `Quick test_deadline_caps_tighten;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_coalesced_sound ]
