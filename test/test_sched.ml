open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module List_sched = Hls_sched.List_sched
module Blc_sched = Hls_sched.Blc_sched
module Frag_sched = Hls_sched.Frag_sched
module Op_delay = Hls_sched.Op_delay
module Transform = Hls_fragment.Transform
module Motivational = Hls_workloads.Motivational

(* --- operation-level delay model --- *)

let test_op_delay_model () =
  let g = Motivational.chain3 () in
  Graph.iter_nodes
    (fun n -> Alcotest.(check int) "16-bit add" 16 (Op_delay.delay n))
    g;
  Alcotest.(check int) "op critical" 48 (Op_delay.critical g);
  Alcotest.(check int) "max delay" 16 (Op_delay.max_delay g)

(* --- conventional list scheduler --- *)

let test_list_chain3_cycles () =
  (* Whole 16-bit adds: λ=3 needs a 16δ cycle; λ=1 must chain all three. *)
  Alcotest.(check int) "λ=3" 16
    (List_sched.min_cycle_delta (Motivational.chain3 ()) ~latency:3);
  Alcotest.(check int) "λ=1" 48
    (List_sched.min_cycle_delta (Motivational.chain3 ()) ~latency:1);
  Alcotest.(check int) "λ=2" 32
    (List_sched.min_cycle_delta (Motivational.chain3 ()) ~latency:2)

let test_list_fig3_cycles () =
  let g = Motivational.fig3 () in
  (* λ=3: the 8-bit adders bound the cycle (max op delay). *)
  Alcotest.(check int) "λ=3" 8 (List_sched.min_cycle_delta g ~latency:3);
  Alcotest.(check int) "λ=2" 12 (List_sched.min_cycle_delta g ~latency:2);
  Alcotest.(check int) "λ=1" 18 (List_sched.min_cycle_delta g ~latency:1)

let test_list_schedule_valid () =
  List.iter
    (fun latency ->
      let t = List_sched.schedule (Motivational.fig3 ()) ~latency in
      match List_sched.verify t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid schedule at λ=%d: %s" latency m)
    [ 1; 2; 3; 4; 5 ]

let test_list_respects_latency () =
  let t = List_sched.schedule (Motivational.fig3 ()) ~latency:3 in
  Graph.iter_nodes
    (fun n ->
      Alcotest.(check bool) "cycle in range" true
        (t.List_sched.cycle_of.(n.id) >= 1 && t.List_sched.cycle_of.(n.id) <= 3))
    t.List_sched.graph

let test_list_infeasible () =
  Alcotest.(check bool) "cycle 4δ cannot hold a 16-bit add" true
    (match
       List_sched.schedule (Motivational.chain3 ()) ~latency:3 ~cycle_delta:4
     with
    | _ -> false
    | exception List_sched.Infeasible _ -> true)

let test_list_balances () =
  (* Six independent adds over 3 cycles: balancing should spread them. *)
  let b = B.create ~name:"par6" in
  let ops =
    List.map
      (fun i ->
        let x = B.input b (Printf.sprintf "x%d" i) ~width:8 in
        let y = B.input b (Printf.sprintf "y%d" i) ~width:8 in
        B.add b ~width:8 x y)
      (Hls_util.List_ext.range 0 6)
  in
  List.iteri (fun i o -> B.output b (Printf.sprintf "o%d" i) o) ops;
  let g = B.finish b in
  let t = List_sched.schedule g ~latency:3 in
  List.iter
    (fun cycle ->
      Alcotest.(check int)
        (Printf.sprintf "2 ops in cycle %d" cycle)
        2
        (List.length (List_sched.ops_in_cycle t cycle)))
    [ 1; 2; 3 ]

(* --- BLC scheduler --- *)

let test_blc_chain3 () =
  (* Fig. 1d: all three additions chained in one 18δ cycle. *)
  Alcotest.(check int) "λ=1 budget" 18
    (Blc_sched.min_budget (Motivational.chain3 ()) ~latency:1);
  (* With ops kept atomic, multicycle BLC still pays a whole 16-bit add. *)
  Alcotest.(check int) "λ=3 budget" 16
    (Blc_sched.min_budget (Motivational.chain3 ()) ~latency:3)

let test_blc_fig3 () =
  Alcotest.(check int) "λ=1 budget" 9
    (Blc_sched.min_budget (Motivational.fig3 ()) ~latency:1);
  Alcotest.(check int) "λ=2 budget" 8
    (Blc_sched.min_budget (Motivational.fig3 ()) ~latency:2)

let test_blc_verify () =
  List.iter
    (fun (g, latency) ->
      let t = Blc_sched.schedule g ~latency in
      match Blc_sched.verify t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "blc λ=%d: %s" latency m)
    [
      (Motivational.chain3 (), 1);
      (Motivational.chain3 (), 3);
      (Motivational.fig3 (), 1);
      (Motivational.fig3 (), 2);
    ]

let test_blc_verify_catches_corruption () =
  let t = Blc_sched.schedule (Motivational.chain3 ()) ~latency:3 in
  let t = { t with Blc_sched.cycle_of = Array.copy t.Blc_sched.cycle_of } in
  (* Move the last op before its producer. *)
  t.Blc_sched.cycle_of.(2) <- 1;
  match Blc_sched.verify t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted a corrupted BLC schedule"

let test_blc_schedule_shape () =
  let t = Blc_sched.schedule (Motivational.chain3 ()) ~latency:1 in
  Alcotest.(check int) "single cycle" 1
    (Array.fold_left max 1 t.Blc_sched.cycle_of);
  Alcotest.(check int) "used = 18δ" 18 (Blc_sched.used_delta t)

(* --- fragment scheduler --- *)

let frag_schedule g ~latency =
  let kernel = Hls_kernel.Extract.run g in
  let tr = Transform.run kernel ~latency in
  Frag_sched.schedule tr

let test_frag_fig3_valid () =
  let s = frag_schedule (Motivational.fig3 ()) ~latency:3 in
  (match Frag_sched.verify s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid fragment schedule: %s" m);
  Alcotest.(check int) "3δ cycle achieved" 3 (Frag_sched.used_delta s)

let test_frag_chain3_valid () =
  let s = frag_schedule (Motivational.chain3 ()) ~latency:3 in
  (match Frag_sched.verify s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid fragment schedule: %s" m);
  Alcotest.(check int) "6δ cycle achieved" 6 (Frag_sched.used_delta s)

let test_frag_beats_conventional_cycle () =
  (* The headline claim: at equal latency the fragmented schedule uses a
     far shorter cycle than the conventional one. *)
  List.iter
    (fun (g, latency) ->
      let conventional = List_sched.min_cycle_delta g ~latency in
      let s = frag_schedule g ~latency in
      let fragmented = Frag_sched.used_delta s in
      Alcotest.(check bool)
        (Printf.sprintf "%d < %d at λ=%d" fragmented conventional latency)
        true
        (fragmented < conventional))
    [
      (Motivational.chain3 (), 3);
      (Motivational.fig3 (), 3);
      (Motivational.chain3 (), 2);
    ]

let test_frag_single_cycle_matches_blc () =
  (* λ=1: no fragmentation possible; the schedule degenerates to pure
     bit-level chaining. *)
  let g = Motivational.chain3 () in
  let s = frag_schedule g ~latency:1 in
  Alcotest.(check int) "18δ like BLC" 18 (Frag_sched.used_delta s)

let test_frag_all_latencies_feasible () =
  List.iter
    (fun latency ->
      let s = frag_schedule (Motivational.fig3 ()) ~latency in
      match Frag_sched.verify s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "λ=%d: %s" latency m)
    [ 1; 2; 3; 4; 5; 6; 9 ]

(* Fig. 2c: the intra-cycle bit-level parallelism of the fragmented
   chain3 schedule.  In cycle 1, C bits 0..5 settle at slots 1..6, E bits
   0..4 at slots 2..6 and G bits 0..3 at slots 3..6 — three fragments
   rippling in parallel, staggered by one δ. *)
let test_fig2c_bit_times () =
  let s = frag_schedule (Motivational.chain3 ()) ~latency:3 in
  let g = Frag_sched.graph s in
  let find label =
    match
      Graph.fold_nodes
        (fun acc n -> if n.label = label then Some n else acc)
        None g
    with
    | Some n -> n
    | None -> Alcotest.failf "missing %s" label
  in
  let times label =
    let n = find label in
    List.init n.width (fun bit ->
        let bt = Frag_sched.bit_time s n.id bit in
        (bt.Frag_sched.bt_cycle, bt.Frag_sched.bt_slot))
  in
  (* C[5:0] is 7 bits (6 sum + carry); the carry settles with bit 5. *)
  Alcotest.(check (list (pair int int))) "C[5:0]"
    [ (1, 1); (1, 2); (1, 3); (1, 4); (1, 5); (1, 6); (1, 6) ]
    (times "C[5:0]");
  Alcotest.(check (list (pair int int))) "E[4:0]"
    [ (1, 2); (1, 3); (1, 4); (1, 5); (1, 6); (1, 6) ]
    (times "E[4:0]");
  Alcotest.(check (list (pair int int))) "G[3:0]"
    [ (1, 3); (1, 4); (1, 5); (1, 6); (1, 6) ]
    (times "G[3:0]")

(* Properties: the fragment scheduler always produces verified schedules on
   random kernel graphs, and never uses more than the estimated budget. *)
let prop_frag_schedules_verify =
  QCheck.Test.make ~name:"fragment schedules verify" ~count:80
    QCheck.(pair (int_range 0 10000) (int_range 1 6))
    (fun (seed, latency) ->
      if latency < 1 then true
      else begin
        let prng = Hls_util.Prng.create ~seed in
        let b = B.create ~name:"r" in
        let fresh = ref 0 in
        let values = ref [] in
        let operand w =
          if !values = [] || Hls_util.Prng.int prng 3 = 0 then begin
            incr fresh;
            B.input b (Printf.sprintf "x%d" !fresh) ~width:w
          end
          else Hls_util.Prng.pick prng !values
        in
        for _ = 1 to 8 do
          let w = 2 + Hls_util.Prng.int prng 12 in
          values := B.add b ~width:w (operand w) (operand w) :: !values
        done;
        List.iteri (fun i v -> B.output b (Printf.sprintf "o%d" i) v) !values;
        let g = B.finish b in
        let tr = Transform.run g ~latency in
        let s = Frag_sched.schedule tr in
        Frag_sched.verify s = Ok ()
        && Frag_sched.used_delta s <= tr.Transform.plan.Hls_fragment.Mobility.n_bits
      end)

let prop_list_schedules_verify =
  QCheck.Test.make ~name:"list schedules verify" ~count:80
    QCheck.(pair (int_range 0 10000) (int_range 1 6))
    (fun (seed, latency) ->
      if latency < 1 then true
      else begin
        let prng = Hls_util.Prng.create ~seed in
        let b = B.create ~name:"r" in
        let fresh = ref 0 in
        let values = ref [] in
        let operand w =
          if !values = [] || Hls_util.Prng.int prng 3 = 0 then begin
            incr fresh;
            B.input b (Printf.sprintf "x%d" !fresh) ~width:w
          end
          else Hls_util.Prng.pick prng !values
        in
        for _ = 1 to 8 do
          let w = 2 + Hls_util.Prng.int prng 12 in
          values := B.add b ~width:w (operand w) (operand w) :: !values
        done;
        List.iteri (fun i v -> B.output b (Printf.sprintf "o%d" i) v) !values;
        let g = B.finish b in
        let t = List_sched.schedule g ~latency in
        List_sched.verify t = Ok ()
      end)

let suite =
  [
    Alcotest.test_case "op delay model" `Quick test_op_delay_model;
    Alcotest.test_case "list: chain3 cycles" `Quick test_list_chain3_cycles;
    Alcotest.test_case "list: fig3 cycles" `Quick test_list_fig3_cycles;
    Alcotest.test_case "list: schedules verify" `Quick test_list_schedule_valid;
    Alcotest.test_case "list: respects latency" `Quick test_list_respects_latency;
    Alcotest.test_case "list: infeasible budget" `Quick test_list_infeasible;
    Alcotest.test_case "list: balances load" `Quick test_list_balances;
    Alcotest.test_case "blc: chain3 (Fig 1d)" `Quick test_blc_chain3;
    Alcotest.test_case "blc: fig3" `Quick test_blc_fig3;
    Alcotest.test_case "blc: schedule shape" `Quick test_blc_schedule_shape;
    Alcotest.test_case "blc: verify" `Quick test_blc_verify;
    Alcotest.test_case "blc: verify catches corruption" `Quick
      test_blc_verify_catches_corruption;
    Alcotest.test_case "frag: fig3 valid + 3δ" `Quick test_frag_fig3_valid;
    Alcotest.test_case "frag: chain3 valid + 6δ" `Quick test_frag_chain3_valid;
    Alcotest.test_case "frag beats conventional" `Quick
      test_frag_beats_conventional_cycle;
    Alcotest.test_case "frag λ=1 ≡ BLC" `Quick test_frag_single_cycle_matches_blc;
    Alcotest.test_case "frag all latencies" `Quick test_frag_all_latencies_feasible;
    Alcotest.test_case "Fig 2c bit times" `Quick test_fig2c_bit_times;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_frag_schedules_verify; prop_list_schedules_verify ]
