module Lifetime = Hls_alloc.Lifetime
module Datapath = Hls_alloc.Datapath
module Motivational = Hls_workloads.Motivational
module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)

let lib = Hls_techlib.default

let iv ?(label = "v") ~w ~from_ ~to_ () =
  { Lifetime.iv_label = label; iv_width = w; iv_from = from_; iv_to = to_ }

let test_storage_interval () =
  Alcotest.(check (option (pair int int))) "same cycle: none" None
    (Lifetime.storage_interval ~def:2 ~last_use:2);
  Alcotest.(check (option (pair int int))) "later use" (Some (2, 4))
    (Lifetime.storage_interval ~def:1 ~last_use:4);
  Alcotest.(check (option (pair int int))) "unused" None
    (Lifetime.storage_interval ~def:3 ~last_use:0)

let test_left_edge_disjoint_share () =
  let regs =
    Lifetime.left_edge
      [ iv ~w:8 ~from_:2 ~to_:2 (); iv ~w:6 ~from_:3 ~to_:3 () ]
  in
  Alcotest.(check int) "one register" 1 (List.length regs);
  Alcotest.(check int) "widest wins" 8 (Lifetime.total_register_bits regs)

let test_left_edge_overlap_split () =
  let regs =
    Lifetime.left_edge
      [ iv ~w:8 ~from_:2 ~to_:3 (); iv ~w:6 ~from_:3 ~to_:4 () ]
  in
  Alcotest.(check int) "two registers" 2 (List.length regs);
  Alcotest.(check int) "total bits" 14 (Lifetime.total_register_bits regs)

let test_left_edge_chain () =
  (* Three values with touching-but-disjoint lives share one register. *)
  let regs =
    Lifetime.left_edge
      [
        iv ~w:4 ~from_:2 ~to_:2 ();
        iv ~w:4 ~from_:3 ~to_:3 ();
        iv ~w:4 ~from_:4 ~to_:5 ();
      ]
  in
  Alcotest.(check int) "one register" 1 (List.length regs)

(* Table I, column "original": one shared 16-bit adder, one 16-bit
   register, two 3:1 operand muxes. *)
let test_table1_conventional_structure () =
  let g = Motivational.chain3 () in
  let r = P.conventional g ~latency:3 in
  let dp = r.P.datapath in
  Alcotest.(check int) "one FU" 1 (Datapath.fu_count dp);
  Alcotest.(check int) "FU gates (Table I: 162)" 162 r.P.area.Datapath.fu_gates;
  Alcotest.(check int) "one shared register" 1 (List.length dp.Datapath.registers);
  Alcotest.(check int) "16 register bits" 16 (Datapath.register_bits dp);
  Alcotest.(check int) "two 3:1 muxes" 2 (Datapath.mux_count dp);
  List.iter
    (fun m -> Alcotest.(check int) "3 inputs" 3 m.Datapath.mux_inputs)
    dp.Datapath.muxes

(* Table I, column "Fig 1d": three dedicated 16-bit adders, nothing else. *)
let test_table1_blc_structure () =
  let g = Motivational.chain3 () in
  let r = P.blc g ~latency:1 in
  let dp = r.P.datapath in
  Alcotest.(check int) "three FUs" 3 (Datapath.fu_count dp);
  Alcotest.(check int) "FU gates (Table I: 486)" 486 r.P.area.Datapath.fu_gates;
  Alcotest.(check int) "no registers" 0 (List.length dp.Datapath.registers);
  Alcotest.(check int) "no muxes" 0 (Datapath.mux_count dp)

(* Table I, column "optimized": three dedicated 6-bit adders, five 1-bit
   registers after left-edge sharing, 3:1 operand muxes. *)
let test_table1_optimized_structure () =
  let g = Motivational.chain3 () in
  let r = (optimized g ~latency:3).P.opt_report in
  let dp = r.P.datapath in
  Alcotest.(check int) "three dedicated adders" 3 (Datapath.fu_count dp);
  List.iter
    (fun (fu : Datapath.fu) ->
      Alcotest.(check int)
        (Printf.sprintf "%s is 6 bits" fu.fu_label)
        6 fu.fu_width)
    dp.Datapath.fus;
  (* The paper stores five 1-bit values (C5, E4, three carries); our
     allocator merges contiguous bits into 2/2/1-bit registers — the same
     five stored bits in three register instances. *)
  Alcotest.(check int) "three registers" 3 (List.length dp.Datapath.registers);
  Alcotest.(check int) "5 register bits" 5 (Datapath.register_bits dp);
  Alcotest.(check bool) "has operand muxes" true (Datapath.mux_count dp > 0);
  (* Six 3:1 six-bit data muxes like the paper, plus 1-bit carry muxes. *)
  let data_muxes =
    List.filter (fun m -> m.Datapath.mux_width > 1) dp.Datapath.muxes
  in
  Alcotest.(check int) "six data muxes" 6 (List.length data_muxes);
  List.iter
    (fun m -> Alcotest.(check int) "3:1" 3 m.Datapath.mux_inputs)
    data_muxes

let test_optimized_cheaper_than_blc () =
  let g = Motivational.chain3 () in
  let blc = P.blc g ~latency:1 in
  let opt = (optimized g ~latency:3).P.opt_report in
  Alcotest.(check bool) "optimized smaller than BLC" true
    (opt.P.area.Datapath.total_gates < blc.P.area.Datapath.total_gates);
  Alcotest.(check bool) "optimized exec close to BLC (within 25%)" true
    (opt.P.execution_ns < blc.P.execution_ns *. 1.25)

let test_execution_time_ordering () =
  (* Conventional is by far the slowest of the three (Table I). *)
  let g = Motivational.chain3 () in
  let conv = P.conventional g ~latency:3 in
  let blc = P.blc g ~latency:1 in
  let opt = (optimized g ~latency:3).P.opt_report in
  Alcotest.(check bool) "blc fastest" true
    (blc.P.execution_ns < opt.P.execution_ns);
  (* Paper Table I: 28.22 / 10.66 = 2.65x; our model gives ~2.4x. *)
  Alcotest.(check bool) "conventional 2.2x slower than optimized" true
    (conv.P.execution_ns > 2.2 *. opt.P.execution_ns)

let test_area_model_consistency () =
  let g = Motivational.fig3 () in
  let r = P.conventional g ~latency:3 in
  let a = Datapath.area lib r.P.datapath in
  Alcotest.(check int) "total is the sum" a.Datapath.total_gates
    (a.Datapath.fu_gates + a.Datapath.register_gates + a.Datapath.mux_gates
   + a.Datapath.controller_gates);
  Alcotest.(check int) "datapath excludes controller"
    (a.Datapath.total_gates - a.Datapath.controller_gates)
    (Datapath.datapath_gates lib r.P.datapath)

(* Bit-level registers: the chain3 optimized flow stores exactly C5, E4
   and the three carry-outs in cycle 1 (paper §2). *)
let test_chain3_cycle1_stored_bits () =
  let g = Motivational.chain3 () in
  let opt = optimized g ~latency:3 in
  let dp = Hls_alloc.Bind_frag.bind opt.P.schedule in
  let cycle2_live =
    List.concat_map
      (fun (r : Lifetime.register) ->
        List.filter (fun iv -> iv.Lifetime.iv_from = 2) r.Lifetime.reg_values)
      dp.Datapath.registers
  in
  Alcotest.(check int) "five bits stored out of cycle 1" 5
    (Hls_util.List_ext.sum_by (fun iv -> iv.Lifetime.iv_width) cycle2_live)

(* Every value a conventional schedule reads across a cycle boundary is
   covered by one of the binder's register intervals for all the cycles it
   is needed in. *)
let prop_shared_registers_cover_reads =
  QCheck.Test.make ~name:"shared registers cover cross-cycle reads" ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 2 6))
    (fun (seed, latency) ->
      if latency < 1 then true
      else begin
        let g = Hls_workloads.Random_dfg.generate ~seed () in
        match Hls_sched.List_sched.schedule g ~latency with
        | exception Hls_sched.List_sched.Infeasible _ -> true
        | t ->
            let regs = Hls_alloc.Bind_shared.registers t in
            let intervals =
              List.concat_map
                (fun (r : Lifetime.register) -> r.Lifetime.reg_values)
                regs
            in
            let covered label cycle =
              List.exists
                (fun iv ->
                  iv.Lifetime.iv_label = label
                  && iv.Lifetime.iv_from <= cycle
                  && cycle <= iv.Lifetime.iv_to)
                intervals
            in
            Hls_dfg.Graph.fold_nodes
              (fun acc (n : Hls_dfg.Types.node) ->
                acc
                && List.for_all
                     (fun (o : Hls_dfg.Types.operand) ->
                       match o.Hls_dfg.Types.src with
                       | Hls_dfg.Types.Node p ->
                           let pc = t.Hls_sched.List_sched.cycle_of.(p) in
                           let cc =
                             t.Hls_sched.List_sched.cycle_of.(n.Hls_dfg.Types.id)
                           in
                           cc = pc
                           ||
                           let producer = Hls_dfg.Graph.node g p in
                           let label =
                             if producer.Hls_dfg.Types.label = "" then
                               Printf.sprintf "n%d" p
                             else producer.Hls_dfg.Types.label
                           in
                           covered label cc
                       | _ -> true)
                     n.Hls_dfg.Types.operands)
              true g
      end)

let prop_left_edge_no_double_booking =
  QCheck.Test.make ~name:"left-edge never double-books" ~count:200
    QCheck.(small_list (pair (int_range 1 8) (pair (int_range 1 6) (int_range 0 4))))
    (fun specs ->
      let intervals =
        List.mapi
          (fun i (w, (from_, len)) ->
            iv ~label:(string_of_int i) ~w ~from_ ~to_:(from_ + len) ())
          specs
      in
      let regs = Lifetime.left_edge intervals in
      (* Within one register, lives are pairwise disjoint. *)
      List.for_all
        (fun (r : Lifetime.register) ->
          let rec disjoint = function
            | [] | [ _ ] -> true
            | a :: (b :: _ as rest) ->
                (* reg_values is kept newest-first. *)
                b.Lifetime.iv_to < a.Lifetime.iv_from && disjoint rest
          in
          disjoint r.Lifetime.reg_values
          && r.Lifetime.reg_width
             = List.fold_left
                 (fun acc v -> max acc v.Lifetime.iv_width)
                 0 r.Lifetime.reg_values)
        regs
      && Hls_util.List_ext.sum_by (fun (r : Lifetime.register) ->
             List.length r.Lifetime.reg_values)
           regs
         = List.length intervals)

(* --- identity with the pre-rewrite binder --- *)

module Bind_frag = Hls_alloc.Bind_frag
module Oracle = Hls_oracle.Bind_oracle

(* Every graph of the benchmark's latency sweep at its default latency
   -1, 0 and +1, plus two points past 62 cycles, where a cycle set no
   longer fits one int mask.  The expected [area.total_gates] of each
   point pins the datapath to a fixed figure independent of both
   binders. *)
let sweep_points =
  [
    ("fir8", 5, 12083); ("fir8", 6, 10775); ("fir8", 7, 10453);
    ("adpcm-decoder", 13, 2842); ("adpcm-decoder", 14, 2899);
    ("adpcm-decoder", 15, 2829);
    ("elliptic", 7, 6982); ("elliptic", 8, 6585); ("elliptic", 9, 6824);
    ("dct8", 7, 8852); ("dct8", 8, 8970); ("dct8", 9, 9114);
    ("random240", 13, 30608); ("random240", 14, 30112);
    ("random240", 15, 30106);
    ("random480", 13, 61374); ("random480", 14, 60052);
    ("random480", 15, 59347);
    ("adpcm-decoder", 70, 2646); ("fir8", 64, 7558);
  ]

let test_bind_matches_oracle () =
  let prepared = Hashtbl.create 8 in
  List.iter
    (fun (name, latency, gates) ->
      let p =
        match Hashtbl.find_opt prepared name with
        | Some p -> p
        | None ->
            let g = Option.get (Hls_workloads.Catalog.find_graph name) in
            let p = P.prepare g in
            Hashtbl.add prepared name p;
            p
      in
      let what = Printf.sprintf "%s@%d" name latency in
      let r =
        match P.run P.default_config p ~latency with
        | Ok r -> r
        | Error f -> Alcotest.failf "%s: %s" what (Hls_util.Failure.to_string f)
      in
      let s = r.P.schedule in
      if Bind_frag.dedicated_fus s <> Oracle.dedicated_fus s then
        Alcotest.failf "%s: dedicated_fus differ" what;
      if Bind_frag.stored_runs s <> Oracle.stored_runs s then
        Alcotest.failf "%s: stored_runs differ" what;
      if Bind_frag.registers s <> Oracle.registers s then
        Alcotest.failf "%s: registers differ" what;
      let dp = Bind_frag.bind s in
      if dp <> Oracle.bind s then Alcotest.failf "%s: datapath differs" what;
      if dp <> r.P.opt_report.P.datapath then
        Alcotest.failf "%s: pipeline datapath differs" what;
      Alcotest.(check int) (what ^ " total gates") gates
        (Datapath.area P.default_config.P.lib dp).Datapath.total_gates)
    sweep_points

(* Every comparison of [test_bind_matches_oracle], on one schedule. *)
let check_against_oracle what ?view s =
  if Bind_frag.dedicated_fus ?view s <> Oracle.dedicated_fus s then
    Alcotest.failf "%s: dedicated_fus differ" what;
  if Bind_frag.stored_runs s <> Oracle.stored_runs s then
    Alcotest.failf "%s: stored_runs differ" what;
  if Bind_frag.registers ?view s <> Oracle.registers s then
    Alcotest.failf "%s: registers differ" what;
  let dp = Bind_frag.bind ?view s in
  if dp <> Oracle.bind s then Alcotest.failf "%s: datapath differs" what;
  dp

(* The sweep points again under the coalesced fragmentation policy,
   where it schedules at all (it rarely does at the sweep latencies: the
   random graphs never), plus points where it does, each of which must
   bind. *)
let coalesced_points =
  [ ("fir8", 6); ("fir8", 9); ("fir8", 12); ("adpcm-decoder", 4);
    ("adpcm-decoder", 6); ("elliptic", 3); ("elliptic", 22); ("dct8", 3);
    ("dct8", 6); ("dct8", 20) ]

let test_bind_matches_oracle_coalesced () =
  let config = { P.default_config with P.policy = `Coalesced } in
  let prepared = Hashtbl.create 8 in
  let bind (name, latency) =
    let p =
      match Hashtbl.find_opt prepared name with
      | Some p -> p
      | None ->
          let g = Option.get (Hls_workloads.Catalog.find_graph name) in
          let p = P.prepare g in
          Hashtbl.add prepared name p;
          p
    in
    match P.run config p ~latency with
    | Error _ -> false
    | Ok r ->
        let what = Printf.sprintf "%s@%d coalesced" name latency in
        let dp = check_against_oracle what r.P.schedule in
        if dp <> r.P.opt_report.P.datapath then
          Alcotest.failf "%s: pipeline datapath differs" what;
        true
  in
  List.iter
    (fun (name, latency, _) -> ignore (bind (name, latency)))
    sweep_points;
  List.iter
    (fun (name, latency) ->
      if not (bind (name, latency)) then
        Alcotest.failf "%s@%d: no coalesced schedule" name latency)
    coalesced_points

(* Latency walks through one shared [Pipeline.frag_memo], where points
   that cut every addition alike reuse the fragmented graph and its
   binding view: each datapath equals a memo-less run's and the oracle's,
   and the view is reused at least once. *)
let test_bind_with_shared_memo () =
  let module Tm = Hls_telemetry in
  Fun.protect ~finally:(fun () -> Tm.disarm (); Tm.reset ()) @@ fun () ->
  Tm.reset ();
  Tm.arm ();
  List.iter
    (fun (name, lats) ->
      let p = P.prepare (Option.get (Hls_workloads.Catalog.find_graph name)) in
      let memo = P.frag_memo () in
      List.iter
        (fun latency ->
          let what = Printf.sprintf "%s@%d memo" name latency in
          match
            (P.run ~memo P.default_config p ~latency,
             P.run P.default_config p ~latency)
          with
          | Ok r, Ok fresh ->
              if r.P.opt_report.P.datapath <> fresh.P.opt_report.P.datapath
              then Alcotest.failf "%s: datapath differs without the memo" what;
              let view = Bind_frag.view r.P.schedule in
              ignore (check_against_oracle what ~view r.P.schedule)
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "%s: memo changed feasibility" what)
        lats)
    [ ("fir8", [ 5; 6; 7; 8 ]); ("dct8", [ 7; 8; 9; 10 ]);
      ("random240", [ 13; 14; 15 ]); ("adpcm-decoder", [ 13; 14; 15; 16 ]) ];
  Alcotest.(check bool) "a binding view was reused" true
    (Tm.counter_total "bind.view_reused" > 0)

(* 50 generated designs of the cold benchmark's shape (the standard
   recipe, λ 3–4, as in [test emit]); designs the flow rejects are
   skipped, not counted. *)
let test_bind_matches_oracle_generated () =
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
            ignore
              (check_against_oracle
                 (Printf.sprintf "design %d" !drawn)
                 r.P.schedule);
            incr checked)
  done

(* The production left-edge against the pre-rewrite first-fit scan, on
   lists drawn to collide: few start cycles (equal [iv_from]), few widths
   (equal widths, width 1), zero-length lives (single-cycle intervals),
   and the empty list. *)
let prop_left_edge_matches_oracle =
  QCheck.Test.make ~name:"left-edge == pre-rewrite first-fit" ~count:500
    QCheck.(list_of_size Gen.(0 -- 40)
              (triple (int_range 1 3) (int_range 1 6) (int_range 0 3)))
    (fun specs ->
      let intervals =
        List.mapi
          (fun i (w, from_, len) ->
            iv ~label:(string_of_int i) ~w ~from_ ~to_:(from_ + len) ())
          specs
      in
      Lifetime.left_edge intervals = Oracle.left_edge intervals)

(* Starts up to 70 cycles and lists up to 200 long, so the free-register
   set spans several words. *)
let prop_left_edge_matches_oracle_long =
  QCheck.Test.make ~name:"left-edge == pre-rewrite first-fit, long lives"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 200)
              (triple (int_range 1 4) (int_range 0 70) (int_range 0 12)))
    (fun specs ->
      let intervals =
        List.mapi
          (fun i (w, from_, len) ->
            iv ~label:(string_of_int i) ~w ~from_ ~to_:(from_ + len) ())
          specs
      in
      Lifetime.left_edge intervals = Oracle.left_edge intervals)

(* Widths far apart make the width span too wide for the counting
   pass: the comparison-sort fallback must order alike.  Lives may also
   end before they start. *)
let prop_left_edge_matches_oracle_wide =
  QCheck.Test.make ~name:"left-edge == pre-rewrite first-fit, wide spans"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 40)
              (triple (int_range 1 100_000) (int_range (-5) 6)
                 (int_range (-2) 3)))
    (fun specs ->
      let intervals =
        List.mapi
          (fun i (w, from_, len) ->
            iv ~label:(string_of_int i) ~w:(1 + (w mod 3 * 40_000)) ~from_
              ~to_:(from_ + len) ())
          specs
      in
      Lifetime.left_edge intervals = Oracle.left_edge intervals)

let suite =
  [
    Alcotest.test_case "storage interval" `Quick test_storage_interval;
    Alcotest.test_case "left-edge shares disjoint" `Quick
      test_left_edge_disjoint_share;
    Alcotest.test_case "left-edge splits overlap" `Quick
      test_left_edge_overlap_split;
    Alcotest.test_case "left-edge chains" `Quick test_left_edge_chain;
    Alcotest.test_case "Table I conventional structure" `Quick
      test_table1_conventional_structure;
    Alcotest.test_case "Table I BLC structure" `Quick test_table1_blc_structure;
    Alcotest.test_case "Table I optimized structure" `Quick
      test_table1_optimized_structure;
    Alcotest.test_case "optimized cheaper than BLC" `Quick
      test_optimized_cheaper_than_blc;
    Alcotest.test_case "execution time ordering" `Quick
      test_execution_time_ordering;
    Alcotest.test_case "area model consistency" `Quick
      test_area_model_consistency;
    Alcotest.test_case "chain3 cycle-1 stored bits (paper)" `Quick
      test_chain3_cycle1_stored_bits;
    Alcotest.test_case "bind == pre-rewrite oracle on sweep points" `Slow
      test_bind_matches_oracle;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_left_edge_no_double_booking;
        prop_shared_registers_cover_reads;
        prop_left_edge_matches_oracle;
      ]
  @ [
      Alcotest.test_case "bind == oracle, coalesced policy" `Slow
        test_bind_matches_oracle_coalesced;
      Alcotest.test_case "bind == oracle through a shared frag memo" `Slow
        test_bind_with_shared_memo;
      Alcotest.test_case "bind == oracle on generated designs" `Quick
        test_bind_matches_oracle_generated;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_left_edge_matches_oracle_long; prop_left_edge_matches_oracle_wide ]
