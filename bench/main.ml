(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (experiment ids E1-E8, see DESIGN.md), plus the timing-core,
   iteration, fuzzing and transformation benches.  Throughput of the
   served flow is measured by the repository benchmark (perfbench/).

   Usage:
     dune exec bench/main.exe              # all reproductions (= tables)
     dune exec bench/main.exe -- table2    # one experiment
     dune exec bench/main.exe -- timing --json
                                           # timing-core bench -> BENCH_timing.json
     dune exec bench/main.exe -- timing --quick
                                           # tiny-quota smoke run *)

module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph
      (P.make_config ?lib ?policy ?balance ?transform ())
      g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)

let optimized_of_prepared ?lib ?policy ?balance p ~latency =
  match P.run (P.make_config ?lib ?policy ?balance ()) p ~latency with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)
module E = Hls_core.Experiments
module Datapath = Hls_alloc.Datapath
module Pretty = Hls_util.Pretty

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let gates label (a : Datapath.area) =
  Printf.sprintf "%s FU %d + reg %d + mux %d + ctrl %d = %d gates" label
    a.Datapath.fu_gates a.Datapath.register_gates a.Datapath.mux_gates
    a.Datapath.controller_gates a.Datapath.total_gates

(* ------------------------------------------------------------------ *)
(* Flags and the JSON ledger shared by the timing, iter and fuzz
   sections.  Each section owns some top-level keys of the ledger
   (BENCH_timing.json unless --out FILE) and rewrites only those.       *)

module J = Hls_dse.Dse_json

type opts = { json : bool; quick : bool; assert_mode : bool; out : string }

let opts () =
  let flag f = Array.exists (( = ) f) Sys.argv in
  let out = ref "BENCH_timing.json" in
  Array.iteri
    (fun i a ->
      if a = "--out" && i + 1 < Array.length Sys.argv then
        out := Sys.argv.(i + 1))
    Sys.argv;
  {
    json = flag "--json";
    quick = flag "--quick";
    assert_mode = flag "--assert";
    out = !out;
  }

let read_ledger path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
    |> J.of_string |> Result.to_option
  else None

(* Keys already in the ledger are replaced in place, new ones appended;
   every other section is kept. *)
let write_ledger path fields =
  let existing =
    match read_ledger path with Some (J.Obj f) -> f | _ -> []
  in
  let merged =
    List.map
      (fun (k, v) -> (k, Option.value (List.assoc_opt k fields) ~default:v))
      existing
    @ List.filter (fun (k, _) -> not (List.mem_assoc k existing)) fields
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string ~indent:true (J.Obj merged));
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E1/E2: Fig. 1 and Fig. 2 — schedules of the motivational example.  *)

let fig1_fig2 () =
  section "Fig. 1 / Fig. 2 — motivational example (3 chained 16-bit adds)";
  let g = Hls_workloads.Motivational.chain3 () in
  let conv = Hls_sched.List_sched.schedule g ~latency:3 in
  Printf.printf
    "Fig. 1b (conventional): one addition per cycle, cycle = %d delta\n"
    conv.Hls_sched.List_sched.cycle_delta;
  let blc = Hls_sched.Blc_sched.schedule g ~latency:1 in
  Printf.printf
    "Fig. 1d (BLC): all three additions in 1 cycle of %d delta (paper: 18)\n"
    (Hls_sched.Blc_sched.used_delta blc);
  let opt = optimized g ~latency:3 in
  Printf.printf "Fig. 2b (optimized): cycle = %d delta (paper: 6); schedule:\n"
    (Hls_sched.Frag_sched.used_delta opt.P.schedule);
  for cycle = 1 to 3 do
    Printf.printf "  cycle %d: %s\n" cycle
      (String.concat ", "
         (List.map
            (fun n -> n.Hls_dfg.Types.label)
            (Hls_sched.Frag_sched.adds_in_cycle opt.P.schedule cycle)))
  done;
  print_string
    "\nFig. 1e — bit-level arrival times under chaining (closed form:\n\
     bit i of C at (i+1)delta, of E at (i+2)delta, of G at (i+3)delta):\n";
  let arr = Hls_timing.Arrival.compute g in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      Printf.printf "  %s: bits 0..15 arrive at delta " n.Hls_dfg.Types.label;
      List.iter
        (fun bit ->
          Printf.printf "%d "
            (Hls_timing.Arrival.slot arr ~id:n.Hls_dfg.Types.id ~bit))
        (Hls_util.List_ext.range 0 n.Hls_dfg.Types.width);
      print_newline ())
    g;
  print_string "\nFig. 2a — the transformed specification:\n";
  print_string
    (Hls_speclang.Emit.emit opt.P.transformed.Hls_fragment.Transform.graph)

(* ------------------------------------------------------------------ *)
(* E3: Table I.                                                        *)

let table1 () =
  section "Table I — comparison of the three implementations";
  let t = E.table1 () in
  let row (r : P.report) =
    [
      r.P.flow;
      string_of_int r.P.latency;
      Printf.sprintf "%.2f ns" r.P.cycle_ns;
      Printf.sprintf "%.2f ns" r.P.execution_ns;
      string_of_int r.P.area.Datapath.fu_gates;
      string_of_int r.P.area.Datapath.register_gates;
      string_of_int r.P.area.Datapath.mux_gates;
      string_of_int r.P.area.Datapath.controller_gates;
      string_of_int r.P.area.Datapath.total_gates;
    ]
  in
  print_string
    (Pretty.render_table
       ~header:
         [ "flow"; "lat"; "cycle"; "exec"; "FU"; "reg"; "mux"; "ctrl"; "total" ]
       [ row t.E.t1_conventional; row t.E.t1_blc; row t.E.t1_optimized ]);
  print_string
    "paper     : conventional 3 / 9.40 / 28.22 ns, 479 gates;\n\
    \            BLC 1 / 9.57 / 9.57 ns, 518 gates;\n\
    \            optimized 3 / 3.55 / 10.66 ns, 452 gates.\n"

(* ------------------------------------------------------------------ *)
(* E4/E5: Fig. 3.                                                      *)

let fig3 () =
  section "Fig. 3 — 8-operation DFG: fragment schedule and comparison";
  let f = E.fig3 () in
  let s = f.E.f3_schedule in
  for cycle = 1 to 3 do
    Printf.printf "cycle %d: %s\n" cycle
      (String.concat ", "
         (List.map
            (fun n -> n.Hls_dfg.Types.label)
            (Hls_sched.Frag_sched.adds_in_cycle s cycle)))
  done;
  Printf.printf "unconsecutive execution observed: %b (paper schedules op A \
                 in cycles 1 and 3)\n"
    (Hls_sched.Frag_sched.has_unconsecutive_execution s);
  let c = f.E.f3_conventional and o = f.E.f3_optimized in
  Printf.printf "\ncycle: %.2f -> %.2f ns (saved %.1f %%; paper: 4.64 -> \
                 1.77 ns, 62 %%)\n"
    c.P.cycle_ns o.P.cycle_ns
    (P.pct_saved ~original:c.P.cycle_ns ~optimized:o.P.cycle_ns);
  print_endline (gates "conventional:" c.P.area);
  print_endline (gates "optimized:   " o.P.area);
  print_string
    "paper (Fig. 3h): FUs 200 -> 160, registers 280 -> 140, routing 172 -> \
     132, controller 60 -> 78, total 712 -> 510.\n\
     Our optimized datapath pays more routing: with full variable operands \
     every fragment steers its own source slices (see EXPERIMENTS.md).\n"

(* ------------------------------------------------------------------ *)
(* E6/E7: Tables II and III.                                           *)

let bench_table ~title ~paper rows =
  section title;
  let row (r : E.bench_row) =
    [
      r.E.bench;
      string_of_int r.E.row_latency;
      Printf.sprintf "%.2f" r.E.cycle_original_ns;
      Printf.sprintf "%.2f" r.E.cycle_optimized_ns;
      Printf.sprintf "%.1f %%" r.E.cycle_saved_pct;
      string_of_int r.E.datapath_original_gates;
      string_of_int r.E.datapath_optimized_gates;
      Printf.sprintf "%+.1f %%" r.E.area_increment_pct;
      Printf.sprintf "%d->%d" r.E.ops_original r.E.ops_optimized;
      string_of_int r.E.fragments;
      (match r.E.equivalence with Ok () -> "ok" | Error _ -> "FAIL");
    ]
  in
  print_string
    (Pretty.render_table
       ~header:
         [
           "bench"; "lat"; "cyc/ns"; "opt/ns"; "saved"; "dp"; "dp-opt";
           "area"; "ops"; "frags"; "equiv";
         ]
       (List.map row rows));
  Printf.printf
    "averages: cycle saved %.1f %%, datapath area %+.1f %%, operations \
     %+.0f %%\n"
    (E.average_cycle_saved rows)
    (E.average_area_increment rows)
    (E.average_op_increase_pct rows);
  print_endline paper

let table2 () =
  bench_table ~title:"Table II — classical HLS benchmarks"
    ~paper:
      "paper: 41.75-84.67 % cycle saved (avg 67 %), area increment 4.6-9.0 % \
       (avg 6 %), ops +34 %."
    (E.table2 ())

let extra () =
  bench_table ~title:"Extended benchmark set (beyond the paper)"
    ~paper:
      "No paper reference: the AR lattice (deep serial chain) and the \
       8-point DCT (wide shallow butterflies) bracket the benchmark shapes."
    (List.concat_map
       (fun (name, graph, latencies) ->
         List.map
           (fun latency -> E.bench_row ~name graph ~latency)
           latencies)
       (Hls_workloads.Extra.set ()))

let table3 () =
  bench_table ~title:"Table III — ADPCM decoder modules"
    ~paper:
      "paper: 60.6-74.9 % cycle saved (avg 66 %), area SAVED 2.4-6.3 % (avg \
       4 %)."
    (E.table3 ())

(* ------------------------------------------------------------------ *)
(* Resource/latency trade curve (beyond the paper): the dual question. *)

let resource_curve () =
  section "Resource/latency trade (dual of the paper's problem)";
  print_endline
    "Given an adder-bit budget per cycle, the smallest latency whose\n\
     fragmented schedule fits (elliptic filter, kernel form):";
  let g = Hls_kernel.Extract.run (Hls_workloads.Benchmarks.elliptic ()) in
  print_string
    (Pretty.render_table
       ~header:[ "adder bits"; "latency"; "cycle δ"; "execution δ" ]
       (List.map
          (fun (bits, latency, chain) ->
            [
              string_of_int bits; string_of_int latency; string_of_int chain;
              string_of_int (latency * chain);
            ])
          (Hls_sched.Resource_sched.sweep g
             ~budgets:[ 16; 32; 64; 128; 256 ])))

(* ------------------------------------------------------------------ *)
(* E8: Fig. 4.                                                         *)

let fig4 () =
  section "Fig. 4 — cycle length vs latency (elliptic)";
  let pts = E.fig4 (Hls_workloads.Benchmarks.elliptic ()) in
  print_string
    (Pretty.render_table
       ~header:[ "latency"; "original/ns"; "optimized/ns"; "saved" ]
       (List.map
          (fun (p : E.fig4_point) ->
            [
              string_of_int p.E.f4_latency;
              Printf.sprintf "%.2f" p.E.f4_original_ns;
              Printf.sprintf "%.2f" p.E.f4_optimized_ns;
              Printf.sprintf "%.1f %%"
                (Pretty.pct ~from:p.E.f4_original_ns ~to_:p.E.f4_optimized_ns);
            ])
          pts));
  print_endline
    "paper: the curves diverge as latency grows (original ~55 -> ~43 ns, \
     optimized ~17 -> ~4 ns over latencies 3..15)."

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md.                  *)

let ablations () =
  section "Ablation — fragmentation policy (full vs coalesced)";
  print_endline
    "`Full` is the paper's algorithm (one fragment per (ASAP,ALAP) pair);\n\
     `Coalesced` merges adjacent fragments while their windows intersect\n\
     and the merged ripple fits the cycle: fewer fragments, less steering.";
  let policy_row name g latency =
    List.map
      (fun (tag, policy) ->
        match optimized ~policy g ~latency with
        | opt ->
            let r = opt.P.opt_report in
            [
              name; tag;
              string_of_int latency;
              string_of_int r.P.fragment_count;
              Printf.sprintf "%d delta" r.P.cycle_delta;
              string_of_int
                (Datapath.datapath_gates Hls_techlib.default r.P.datapath);
              string_of_int r.P.area.Datapath.controller_gates;
            ]
        | exception Hls_util.Failure.Flow_failure (Hls_util.Failure.Infeasible m) ->
            [ name; tag; string_of_int latency; "-"; "infeasible"; m; "" ])
      [ ("full", `Full); ("coalesced", `Coalesced) ]
  in
  print_string
    (Pretty.render_table
       ~header:[ "bench"; "policy"; "lat"; "frags"; "cycle"; "dp"; "ctrl" ]
       (policy_row "elliptic" (Hls_workloads.Benchmarks.elliptic ()) 6
       @ policy_row "fir2" (Hls_workloads.Benchmarks.fir2 ()) 3
       @ policy_row "chain3" (Hls_workloads.Motivational.chain3 ()) 3));

  section "Ablation — fragment scheduler balancing (on vs off)";
  let balance_row name g latency =
    List.map
      (fun (tag, balance) ->
        let opt = optimized ~balance g ~latency in
        let r = opt.P.opt_report in
        [
          name; tag;
          string_of_int latency;
          Printf.sprintf "%d delta" r.P.cycle_delta;
          string_of_int (Datapath.datapath_gates Hls_techlib.default r.P.datapath);
          string_of_int r.P.area.Datapath.fu_gates;
        ])
      [ ("balanced", true); ("asap", false) ]
  in
  print_string
    (Pretty.render_table
       ~header:[ "bench"; "mode"; "lat"; "cycle"; "dp"; "FU" ]
       (balance_row "elliptic" (Hls_workloads.Benchmarks.elliptic ()) 6
       @ balance_row "fig3" (Hls_workloads.Motivational.fig3 ()) 3));

  section "Ablation — baseline scheduler variants (paper §1)";
  print_endline
    "The paper positions fragmentation against multicycling (shorter cycle,\n\
     longer total time, results wait for whole operations) and chaining.\n\
     One row per baseline on the motivational example at equal latencies.";
  let g = Hls_workloads.Motivational.chain3 () in
  let rows =
    [
      (let t = Hls_sched.List_sched.schedule g ~latency:3 in
       [ "conventional (chain)"; "3";
         Printf.sprintf "%d delta" t.Hls_sched.List_sched.cycle_delta;
         Printf.sprintf "%d delta" (3 * t.Hls_sched.List_sched.cycle_delta) ]);
      (let t = Hls_sched.Multicycle_sched.schedule g ~latency:6 in
       [ "conventional (multicycle)"; "6";
         Printf.sprintf "%d delta" t.Hls_sched.Multicycle_sched.cycle_delta;
         Printf.sprintf "%d delta" (6 * t.Hls_sched.Multicycle_sched.cycle_delta) ]);
      (let t = Hls_sched.Force_directed.schedule g ~latency:3 in
       [ "conventional (force-directed)"; "3";
         Printf.sprintf "%d delta" t.Hls_sched.List_sched.cycle_delta;
         Printf.sprintf "%d delta" (3 * t.Hls_sched.List_sched.cycle_delta) ]);
      (let t = Hls_sched.Blc_sched.schedule g ~latency:1 in
       [ "bit-level chaining"; "1";
         Printf.sprintf "%d delta" (Hls_sched.Blc_sched.used_delta t);
         Printf.sprintf "%d delta" (Hls_sched.Blc_sched.used_delta t) ]);
      (let opt = optimized g ~latency:3 in
       [ "fragmented (this paper)"; "3";
         Printf.sprintf "%d delta" opt.P.opt_report.P.cycle_delta;
         Printf.sprintf "%d delta" (3 * opt.P.opt_report.P.cycle_delta) ]);
      (let opt = optimized g ~latency:6 in
       [ "fragmented (this paper)"; "6";
         Printf.sprintf "%d delta" opt.P.opt_report.P.cycle_delta;
         Printf.sprintf "%d delta" (6 * opt.P.opt_report.P.cycle_delta) ]);
    ]
  in
  print_string
    (Pretty.render_table ~header:[ "baseline"; "lat"; "cycle"; "execution" ]
       rows);

  section "Ablation — functional pipelining (paper §1, refs [1-2])";
  print_endline
    "Pipelining overlaps iterations: throughput scales with 1/II but the\n\
     latency of one sample never improves, and folded FU pressure grows —\n\
     fragmentation instead shortens the cycle itself.";
  let g = Hls_workloads.Motivational.chain3 () in
  let sched = Hls_sched.List_sched.schedule g ~latency:3 in
  let conv = P.conventional g ~latency:3 in
  let sweep = Hls_sched.Pipeline_sched.sweep sched ~cycle_ns:conv.P.cycle_ns in
  let opt = optimized g ~latency:3 in
  let o = opt.P.opt_report in
  print_string
    (Pretty.render_table
       ~header:[ "scheme"; "II"; "throughput /µs"; "latency ns"; "FU bits" ]
       (List.map
          (fun (c : Hls_sched.Pipeline_sched.comparison) ->
            [
              "pipelined conventional";
              string_of_int c.Hls_sched.Pipeline_sched.cmp_ii;
              Printf.sprintf "%.1f" c.cmp_throughput;
              Printf.sprintf "%.1f" c.cmp_latency_ns;
              string_of_int c.cmp_fu_bits;
            ])
          sweep
       @ (let fp =
            Hls_sched.Pipeline_sched.analyze_fragmented opt.P.schedule ~ii:1
          in
          [
            [
              "fragmented (this paper)"; "3";
              Printf.sprintf "%.1f" (1000. /. o.P.execution_ns);
              Printf.sprintf "%.1f" o.P.execution_ns;
              "18";
            ];
            [
              "fragmented + pipelined (ext)"; "1";
              Printf.sprintf "%.1f"
                (Hls_sched.Pipeline_sched.fragmented_throughput_per_us fp
                   ~cycle_ns:o.P.cycle_ns);
              Printf.sprintf "%.1f" o.P.execution_ns;
              string_of_int
                (Hls_sched.Pipeline_sched.fragmented_peak_bits fp);
            ];
          ])));

  section "Ablation — presynthesis cleanup (fold/CSE/DCE before phase 3)";
  List.iter
    (fun (name, g, latency) ->
      let plain = optimized g ~latency in
      let cleaned = optimized ~transform:Hls_xform.Recipe.cleanup g ~latency in
      Printf.printf
        "%-10s λ=%-2d  kernel ops %3d -> %3d, fragments %3d -> %3d, dp %5d ->          %5d gates\n"
        name latency plain.P.opt_report.P.op_count
        cleaned.P.opt_report.P.op_count plain.P.opt_report.P.fragment_count
        cleaned.P.opt_report.P.fragment_count
        (Datapath.datapath_gates Hls_techlib.default
           plain.P.opt_report.P.datapath)
        (Datapath.datapath_gates Hls_techlib.default
           cleaned.P.opt_report.P.datapath))
    [
      ("elliptic", Hls_workloads.Benchmarks.elliptic (), 6);
      ("diffeq", Hls_workloads.Benchmarks.diffeq (), 5);
      ("dct8", Hls_workloads.Extra.dct8 (), 4);
    ];

  section "Ablation — carry-lookahead library (paper §2, last paragraph)";
  print_endline
    "Same flows reported through the CLA library: adders are larger but the\n\
     conventional baseline's operation atoms shrink (log-depth adds), so\n\
     the relative gain of fragmentation narrows — the paper's remark that\n\
     faster adders also profit, with a different balance.";
  List.iter
    (fun (name, lib) ->
      let g = Hls_workloads.Motivational.chain3 () in
      let conv = P.conventional ~lib g ~latency:3 in
      let opt = optimized ~lib g ~latency:3 in
      Printf.printf
        "%-18s conventional %5.2f ns / %4d gates    optimized %5.2f ns / %4d          gates\n"
        name conv.P.cycle_ns conv.P.area.Datapath.total_gates
        opt.P.opt_report.P.cycle_ns
        opt.P.opt_report.P.area.Datapath.total_gates)
    [ ("ripple (default)", Hls_techlib.default); ("carry-lookahead", Hls_techlib.fast_cla) ]

(* ------------------------------------------------------------------ *)
(* Bit-level timing core: per-query Bitdep reference vs the packed     *)
(* Bitnet, on each analysis alone and on the full optimized pipeline.  *)

(* Wall time of [reps] back-to-back calls of [f], in seconds. *)
let batch_s f reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Unix.gettimeofday () -. t0

(* After one warm-up call: the smallest power-of-two repetition count
   whose batch lasts at least [min_s]. *)
let calibrate ~min_s f =
  ignore (Sys.opaque_identity (f ()));
  let reps = ref 1 in
  while batch_s f !reps < min_s do
    reps := !reps * 2
  done;
  !reps

(* Best-of-[rounds] wall time of [f] in ns per call, over batches grown
   until one lasts at least 0.3 ms. *)
let best_ns ?(rounds = 7) f =
  let reps = calibrate ~min_s:3e-4 f in
  let best = ref infinity in
  for _ = 1 to rounds do
    best := Float.min !best (batch_s f reps)
  done;
  !best *. 1e9 /. float_of_int reps

(* [best_ns] of a reference [a] and a candidate [b] for a gate comparing
   the two: the rounds interleave one batch of each, so drift on a shared
   host (another tenant, frequency scaling) lands on both sides, and every
   batch lasts at least 2 ms, well above timer and scheduler jitter.  A
   pair with a side under 100 µs per call runs 21 rounds instead of 7:
   its best-of-7 ratio still swings past a 1.0x gate on a 2-core host.
   Returns both bests and every round's ns per call, [a] then [b], in
   order. *)
let best_ns_ab a b =
  let ra = calibrate ~min_s:2e-3 a and rb = calibrate ~min_s:2e-3 b in
  let rounds_a = ref [] and rounds_b = ref [] in
  let round () =
    rounds_a := (batch_s a ra *. 1e9 /. float_of_int ra) :: !rounds_a;
    rounds_b := (batch_s b rb *. 1e9 /. float_of_int rb) :: !rounds_b
  in
  round ();
  let per_call = Float.min (List.hd !rounds_a) (List.hd !rounds_b) in
  for _ = 2 to if per_call < 1e5 then 21 else 7 do
    round ()
  done;
  let best l = List.fold_left Float.min infinity l in
  (best !rounds_a, best !rounds_b, List.rev !rounds_a, List.rev !rounds_b)

(* The end-to-end equivalence check of every catalog workload's optimized
   flow at its default latency ([Pipeline.check_optimized_equivalence]'s
   call): the bit-sliced [Hls_check] against the per-vector checker it
   replaced ([Hls_oracle.Check_oracle]), with both verdicts.  The stress
   workloads are left out: one oracle run takes 4.5 s on random240 and
   25 s on random480, against well under 1 s on every other workload. *)
let equivalence_rows ~quick =
  List.filter_map
    (fun e ->
      let open Hls_workloads.Catalog in
      if List.mem "stress" e.tags then None
      else
        let g = graph e in
        let latency = e.default_latency in
        let h =
          (optimized g ~latency).P.transformed.Hls_fragment.Transform.graph
        in
        let fresh () = Hls_check.equivalent ~samples:40 ~seed:99 g h in
        let oracle () =
          Hls_oracle.Check_oracle.equivalent ~samples:40 ~seed:99 g h
        in
        let rounds = if quick then 3 else 7 in
        let c = best_ns ~rounds fresh and o = best_ns ~rounds oracle in
        let v = fresh () in
        Some (e.name, latency, v, v = oracle (), o, c))
    (Hls_workloads.Catalog.all ())

let print_equivalence rows =
  Printf.printf "%-16s %-22s %5s %14s %14s %9s\n" "workload" "verdict" "same"
    "oracle ns" "checker ns" "speedup";
  List.iter
    (fun (w, _, v, same, o, c) ->
      Printf.printf "%-16s %-22s %5b %14.0f %14.0f %8.2fx\n" w
        (Format.asprintf "%a" Hls_check.pp_verdict v)
        same o c (o /. c))
    rows

let equivalence_json ~quick rows =
  J.Obj
    [
      ("quick", J.Bool quick);
      ("samples", J.Int 40);
      ("seed", J.Int 99);
      ( "results",
        J.List
          (List.map
             (fun (w, latency, v, same, o, c) ->
               J.Obj
                 [
                   ("workload", J.String w);
                   ("latency", J.Int latency);
                   ( "verdict",
                     J.String (Format.asprintf "%a" Hls_check.pp_verdict v) );
                   ("same_verdict", J.Bool same);
                   ("oracle_ns_per_run", J.Float o);
                   ("checker_ns_per_run", J.Float c);
                   ("speedup", J.Float (o /. c));
                 ])
             rows) );
    ]

(* One gated pair of [timing --assert]: [best_ns_ab] of a reference and
   a candidate, printed; a candidate slower than its reference sets
   [failed] and prints every round of both sides.  With [~gate:false]
   the pair is only timed and printed.  Returns both bests. *)
let gate_pair ?(gate = true) failed w analysis ref_fn net_fn =
  let r, n, rounds_r, rounds_n = best_ns_ab ref_fn net_fn in
  let s = if n > 0. then r /. n else infinity in
  Printf.printf "%s: %-16s %-8s %8.0f ns -> %8.0f ns (%5.2fx)\n"
    (if gate then "bench-assert" else "timing") w analysis r n s;
  if gate && s < 1.0 then begin
    failed := true;
    Printf.eprintf "bench-assert: %s/%s at %.2fx, slower than its reference\n"
      w analysis s;
    List.iteri
      (fun i (r, n) ->
        Printf.eprintf "bench-assert:   round %2d  %10.0f ns  %10.0f ns\n"
          (i + 1) r n)
      (List.combine rounds_r rounds_n)
  end;
  (r, n)

(* The registry half of the gate: every registry workload, not just the
   benched ones, at its default latency.  The amortized kernels (prebuilt
   net, the serving-path configuration) against the per-query
   references, the one-pass fragmentation against the pre-rewrite
   rebuild plus its net build, and the flat-array binder against the
   list-based binder it replaced (both on the net). *)
let registry_gate failed =
  List.iter
    (fun e ->
      let w = e.Hls_workloads.Catalog.name in
      let kernel = P.prepare_kernel (Hls_workloads.Catalog.graph e) in
      let net = Hls_timing.Bitnet.build kernel in
      let total =
        Hls_timing.Arrival.critical_delta (Hls_timing.Arrival.of_net net)
      in
      let check a ref_fn net_fn = ignore (gate_pair failed w a ref_fn net_fn) in
      check "arrival"
        (fun () -> ignore (Hls_oracle.Timing_oracle.arrival kernel))
        (fun () -> ignore (Hls_timing.Arrival.of_net net));
      check "deadline"
        (fun () ->
          ignore (Hls_oracle.Timing_oracle.deadline kernel ~total_slots:total))
        (fun () -> ignore (Hls_timing.Deadline.of_net net ~total_slots:total));
      let latency = e.Hls_workloads.Catalog.default_latency in
      match P.run P.default_config (P.prepared_of_kernel kernel) ~latency with
      | Ok r ->
          let plan = r.P.transformed.Hls_fragment.Transform.plan in
          check "fragment"
            (fun () -> ignore (Hls_oracle.Transform_oracle.build kernel plan))
            (fun () -> ignore (Hls_fragment.Transform.apply kernel plan));
          check "bind"
            (fun () -> ignore (Hls_oracle.Bind_oracle.bind r.P.schedule))
            (fun () -> ignore (Hls_alloc.Bind_frag.bind r.P.schedule))
      | Error _ -> ())
    (Hls_workloads.Catalog.all ())

(* The v1 wire codec against the one it replaced
   ([Hls_oracle.Json_oracle]): encoding and decoding three response
   lines a served flow sends — a chain3 report (λ 3) and a fir2
   optimized schedule (λ 4), the small requests of the serving mix, and
   dct8's Verilog at λ 14, a large emit answer.  Each line is priced as
   [gate_pair] prices a pair; rows are (line, bytes, op, oracle ns,
   codec ns). *)
let wire_codec_rows ~gate failed =
  let module R = Hls_api.Request in
  let module O = Hls_oracle.Json_oracle in
  let exec = Hls_api.Exec.create () in
  let line name req =
    match Hls_api.Exec.run exec req with
    | Ok payload ->
        (name, Hls_api.Response.to_string (Hls_api.Response.ok ~id:"1" payload))
    | Error e ->
        failwith (name ^ ": " ^ Hls_api.Response.error_message e)
  in
  let config = R.default_config in
  let lines =
    [
      line "chain3/report"
        (R.Report
           { spec = R.Builtin "chain3"; latency = 3; config; target_ns = None });
      line "fir2/schedule"
        (R.Schedule
           { spec = R.Builtin "fir2"; latency = 4; flow = R.Optimized; config });
      line "dct8/emit"
        (R.Emit
           { spec = R.Builtin "dct8"; latency = 14; format = R.Verilog; config });
    ]
  in
  Hls_api.Exec.close exec;
  List.concat_map
    (fun (name, text) ->
      let v = Result.get_ok (J.of_string text) in
      let o = Result.get_ok (O.of_string text) in
      let time op ref_fn new_fn =
        let r, n = gate_pair ~gate failed name op ref_fn new_fn in
        (name, String.length text, op, r, n)
      in
      let encode =
        time "encode"
          (fun () -> ignore (O.to_string o))
          (fun () -> ignore (J.to_string v))
      in
      let decode =
        time "decode"
          (fun () -> ignore (O.of_string text))
          (fun () -> ignore (J.of_string text))
      in
      [ encode; decode ])
    lines

let timing () =
  let { json; quick; assert_mode; out } = opts () in
  section "Bit-level timing core: per-query reference vs packed Bitnet";
  let open Bechamel in
  let random_dfg =
    Hls_workloads.Random_dfg.generate
      ~profile:
        { Hls_workloads.Random_dfg.default_profile with
          ops = 120; mul_ratio = 12 }
      ~seed:42 ()
  in
  let registry w =
    match Hls_workloads.Catalog.find_graph w with
    | Some g -> g
    | None -> failwith (w ^ " missing from the workload catalog")
  in
  let workloads =
    [
      ("adpcm", Hls_workloads.Adpcm.decoder (), [ 4; 6; 8; 10; 12 ]);
      ("random120", random_dfg, [ 6; 8; 10; 12; 14 ]);
      (* Multi-lane stress shapes from the registry: several independent
         regions, the largest nets the timing kernels sweep. *)
      ("random240", registry "random240", [ 8; 10; 12; 14 ]);
      ("random480", registry "random480", [ 10; 14 ]);
    ]
  in
  (* Each pair times the same computation twice: [ref] through the
     retained per-query Bitdep implementations, [net] through the flat
     dependency net.  The arrival/deadline rows measure the serving-path
     configuration: the net is built once and shared (exactly how the
     pipeline holds it), so the [net] side is the amortized id-order
     sweep alone.  The mobility and pipeline_sweep rows still price the
     whole flow including net construction. *)
  let pairs = ref [] in
  let tests =
    List.concat_map
      (fun (wname, g, latencies) ->
        let kernel = P.prepare_kernel g in
        let net = Hls_timing.Bitnet.build kernel in
        let total =
          Hls_timing.Arrival.critical_delta (Hls_timing.Arrival.of_net net)
        in
        let mid_latency = List.nth latencies (List.length latencies / 2) in
        let tr = Hls_fragment.Transform.run kernel ~latency:mid_latency in
        let pair analysis ref_fn net_fn =
          let name side = Printf.sprintf "%s/%s/%s" wname analysis side in
          pairs :=
            (wname, analysis, name "ref", name "net", ref_fn, net_fn)
            :: !pairs;
          [
            Test.make ~name:(name "ref") (Staged.stage ref_fn);
            Test.make ~name:(name "net") (Staged.stage net_fn);
          ]
        in
        pair "arrival"
          (fun () -> ignore (Hls_oracle.Timing_oracle.arrival kernel))
          (fun () -> ignore (Hls_timing.Arrival.of_net net))
        @ pair "deadline"
            (fun () ->
              ignore
                (Hls_oracle.Timing_oracle.deadline kernel
                   ~total_slots:total))
            (fun () ->
              ignore (Hls_timing.Deadline.of_net net ~total_slots:total))
        @ pair "mobility"
            (fun () ->
              ignore
                (Hls_oracle.Timing_oracle.mobility kernel
                   ~latency:mid_latency))
            (fun () ->
              ignore
                (Hls_fragment.Mobility.compute kernel ~latency:mid_latency))
        @ (* A fresh fragmentation (a memo miss), at the workload's
             longest latency: the pre-rewrite rebuild and the separate
             net build it needed, against the one-pass build of both. *)
          (let plan =
             Hls_fragment.Mobility.compute kernel
               ~latency:(List.nth latencies (List.length latencies - 1))
           in
           pair "fragment"
             (fun () ->
               ignore (Hls_oracle.Transform_oracle.build kernel plan))
             (fun () -> ignore (Hls_fragment.Transform.apply kernel plan)))
        @ pair "frag_sched"
            (fun () -> ignore (Hls_oracle.Timing_oracle.schedule tr))
            (fun () -> ignore (Hls_sched.Frag_sched.schedule tr))
        @ (let sched = Hls_sched.Frag_sched.schedule tr in
           pair "bind"
             (fun () -> ignore (Hls_oracle.Bind_oracle.bind_reference sched))
             (fun () -> ignore (Hls_alloc.Bind_frag.bind sched)))
        @ pair "pipeline_sweep"
            (fun () ->
              (* Pre-net flow: kernel extraction once, then the per-query
                 reference analyses at every latency of the sweep, ending
                 in the same report metrics [optimized_of_prepared]
                 produces. *)
              let lib = Hls_techlib.default in
              let kernel = P.prepare_kernel g in
              List.iter
                (fun latency ->
                  let plan =
                    Hls_oracle.Timing_oracle.mobility kernel ~latency
                  in
                  let tr = Hls_oracle.Transform_oracle.build kernel plan in
                  let s = Hls_oracle.Timing_oracle.schedule tr in
                  let dp = Hls_oracle.Bind_oracle.bind_reference s in
                  ignore (Hls_alloc.Datapath.cycle_ns lib dp);
                  ignore (Hls_alloc.Datapath.execution_ns lib dp);
                  ignore (Hls_alloc.Datapath.area lib dp);
                  ignore (Hls_dfg.Graph.behavioural_op_count kernel);
                  ignore (Hls_fragment.Transform.op_count tr))
                latencies)
            (fun () ->
              let p = P.prepare g in
              List.iter
                (fun latency ->
                  ignore (optimized_of_prepared p ~latency))
                latencies))
      workloads
  in
  (* RTL printing: the buffer-writing Verilog printer against the
     pre-rewrite Printf printer it replaced ([Hls_oracle.Rtl_oracle]), on
     one elaborated netlist each — dct8 and random240 at λ 14 and the
     first generated design of the cold benchmark's shape (standard
     recipe, λ 4) that the flow accepts. *)
  let cold_graph, cold_schedule =
    let rec cold prng =
      let profile =
        { Hls_fuzz.Gen.default_profile with
          n_inputs = 5; n_stmts = 14; n_outputs = 3; depth = 3;
          max_width = 16 }
      in
      match
        Hls_speclang.Elaborate.from_string_result
          (Hls_fuzz.Gen.source prng profile)
      with
      | Ok g when Hls_dfg.Graph.behavioural_op_count g >= 20 -> (
          match
            P.run_graph
              (P.make_config
                 ~transform:(Hls_xform.Recipe.of_string_exn "standard") ())
              g ~latency:4
          with
          | Ok r -> (g, r.P.schedule)
          | Error _ -> cold prng)
      | _ -> cold prng
    in
    cold (Hls_util.Prng.create ~seed:1)
  in
  let emit_designs =
    [
      ("dct8", (optimized (registry "dct8") ~latency:14).P.schedule);
      ("random240", (optimized (registry "random240") ~latency:14).P.schedule);
      ("cold", cold_schedule);
    ]
  in
  let tests =
    tests
    @ List.concat_map
        (fun (wname, s) ->
          let nl = Hls_rtl.Elaborate_netlist.elaborate s in
          let name side = Printf.sprintf "%s/emit/%s" wname side in
          let ref_fn () = ignore (Hls_oracle.Rtl_oracle.Verilog.emit nl) in
          let net_fn () = ignore (Hls_rtl.Verilog.emit nl) in
          pairs :=
            (wname, "emit", name "ref", name "net", ref_fn, net_fn) :: !pairs;
          [
            Test.make ~name:(name "ref") (Staged.stage ref_fn);
            Test.make ~name:(name "net") (Staged.stage net_fn);
          ])
        emit_designs
  in
  (* Graph text: the Buffer writer behind [Graph.to_string], [digest] and
     the recipe engine's change detection against the Format printer it
     replaced ([Hls_oracle.Graph_oracle]), on the cold design's source
     (the graph the engine prints after every pass) and the dct8 and
     random480 sources. *)
  let tests =
    tests
    @ List.concat_map
        (fun (wname, g) ->
          let name side = Printf.sprintf "%s/graph_text/%s" wname side in
          let ref_fn () = ignore (Hls_oracle.Graph_oracle.to_string g) in
          let net_fn () = ignore (Hls_dfg.Graph.to_string g) in
          pairs :=
            (wname, "graph_text", name "ref", name "net", ref_fn, net_fn)
            :: !pairs;
          [
            Test.make ~name:(name "ref") (Staged.stage ref_fn);
            Test.make ~name:(name "net") (Staged.stage net_fn);
          ])
        [ ("cold", cold_graph); ("dct8", registry "dct8");
          ("random480", registry "random480") ]
  in
  (* Telemetry overhead: the same prepared-pipeline sweep with the sink
     disarmed vs armed (metrics mode).  Disarmed it is byte-for-byte the
     adpcm/pipeline_sweep/net computation — its delta from that row is
     measurement noise, which bounds the disabled-mode cost of the
     instrumentation; the armed row prices actual recording. *)
  let tel_sweep =
    let g = Hls_workloads.Adpcm.decoder () in
    let latencies = [ 4; 6; 8; 10; 12 ] in
    fun () ->
      let p = P.prepare g in
      List.iter (fun latency -> ignore (optimized_of_prepared p ~latency))
        latencies
  in
  let tests =
    tests
    @ [
        Test.make ~name:"adpcm/telemetry/off" (Staged.stage tel_sweep);
        Test.make ~name:"adpcm/telemetry/on"
          (Staged.stage (fun () ->
               Hls_telemetry.arm ~metrics:true ();
               Fun.protect ~finally:Hls_telemetry.disarm tel_sweep));
      ]
  in
  (* Behavioural transformation recipes on the ADPCM decoder: the cost
     of running each preset (no verification — that is priced by the
     checker, not the engine) next to what it buys the flow at the
     sweep's tightest latency. *)
  let xform_specs = [ "cleanup"; "standard"; "aggressive" ] in
  let xform_graph = Hls_workloads.Adpcm.decoder () in
  let tests =
    tests
    @ List.map
        (fun spec ->
          let recipe = Hls_xform.Recipe.of_string_exn spec in
          Test.make ~name:("adpcm/xform/" ^ spec)
            (Staged.stage (fun () ->
                 ignore (Hls_xform.Engine.apply recipe xform_graph))))
        xform_specs
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    if quick then Benchmark.cfg ~limit:25 ~quota:(Time.second 0.02) ()
    else Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  (* The --assert speed gate runs here, before Bechamel.  Bechamel
     compacts the heap before every sample, over a thousand forced major
     collections in one run, and after that many the OCaml 5.1 runtime's
     incremental major GC does no work for the rest of the process: run
     after Bechamel, the registry gate grew the heap to about 270M words
     (2.2 GB resident) with no major cycle finishing, and its
     allocation-heavy pairs ([fragment] on ar-lattice, fletcher16,
     random480) fell below 1.0x in about one run in ten.  The benched
     pairs the gate covers are timed here the same way, not read from
     Bechamel's quick estimates, which fit a multi-millisecond call from a
     handful of samples (random240 [fragment] once read 0.72x). *)
  let failed = ref false in
  if assert_mode then begin
    registry_gate failed;
    List.iter
      (fun (w, a, _, _, ref_fn, net_fn) ->
        if
          a = "arrival" || a = "deadline" || a = "bind" || a = "emit"
          || a = "fragment" || a = "graph_text"
        then ignore (gate_pair failed w a ref_fn net_fn))
      (List.rev !pairs)
  end;
  let wire_codec = wire_codec_rows ~gate:assert_mode failed in
  (* Timed here too, for the same reason: after Bechamel the checker and
     its oracle ran in a process whose major GC had stopped. *)
  let equivalence = equivalence_rows ~quick in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"timing" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimate name =
    match Hashtbl.find_opt results ("timing " ^ name) with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ est ] -> Some est | _ -> None)
    | None -> None
  in
  let rows =
    List.filter_map
      (fun (wname, analysis, ref_name, net_name, _, _) ->
        match (estimate ref_name, estimate net_name) with
        | Some r, Some n when n > 0. ->
            Some (wname, analysis, r, n, r /. n)
        | _ -> None)
      (List.rev !pairs)
  in
  Printf.printf "%-12s %-16s %14s %14s %9s\n" "workload" "analysis"
    "reference ns" "bitnet ns" "speedup";
  List.iter
    (fun (w, a, r, n, s) ->
      Printf.printf "%-12s %-16s %14.1f %14.1f %8.2fx\n" w a r n s)
    rows;
  if rows = [] then prerr_endline "timing: no estimates collected";
  (* What a fresh fragmentation allocates on the stress workloads at
     λ 14: minor-heap words per call of the pre-rewrite rebuild plus its
     separate net build, against the one-pass build of both. *)
  let frag_alloc =
    List.map
      (fun w ->
        let kernel = P.prepare_kernel (registry w) in
        let plan = Hls_fragment.Mobility.compute kernel ~latency:14 in
        let words f =
          let before = Gc.minor_words () in
          ignore (Sys.opaque_identity (f ()));
          Gc.minor_words () -. before
        in
        ( w,
          words (fun () -> Hls_oracle.Transform_oracle.build kernel plan),
          words (fun () -> Hls_fragment.Transform.apply kernel plan) ))
      [ "random240"; "random480" ]
  in
  List.iter
    (fun (w, o, n) ->
      Printf.printf "%-12s %-16s %11.0f minor words -> %11.0f (%.2fx less)\n"
        w "fragment alloc" o n (o /. n))
    frag_alloc;
  let xform_rows =
    let module X = Hls_xform in
    (* the adpcm sweep's tightest latency — where a shallower behaviour
       actually moves the cycle; with slack the scheduler hides it *)
    let latency = 4 in
    let baseline = optimized xform_graph ~latency in
    List.map
      (fun spec ->
        let recipe = X.Recipe.of_string_exn spec in
        let o = X.Engine.apply recipe xform_graph in
        let r = optimized ~transform:recipe xform_graph ~latency in
        let cycle = r.P.opt_report.P.cycle_ns in
        let saved =
          P.pct_saved ~original:baseline.P.opt_report.P.cycle_ns
            ~optimized:cycle
        in
        ( spec,
          estimate ("adpcm/xform/" ^ spec),
          Hls_dfg.Graph.node_count xform_graph,
          Hls_dfg.Graph.node_count o.X.Engine.graph,
          X.Plan.depth xform_graph,
          X.Plan.depth o.X.Engine.graph,
          cycle,
          saved ))
      xform_specs
  in
  Printf.printf "%-12s %-16s %14s %11s %11s %9s %7s\n" "workload" "recipe"
    "engine ns" "nodes" "depth" "cycle/ns" "saved";
  List.iter
    (fun (spec, est, nb, na, db, da, cycle, saved) ->
      Printf.printf "%-12s %-16s %14s %4d -> %4d %4d -> %4d %9.2f %6.1f%%\n"
        "adpcm" spec
        (match est with Some e -> Printf.sprintf "%.1f" e | None -> "-")
        nb na db da cycle saved)
    xform_rows;
  let telemetry =
    match
      ( estimate "adpcm/pipeline_sweep/net",
        estimate "adpcm/telemetry/off",
        estimate "adpcm/telemetry/on" )
    with
    | Some base, Some off, Some on when base > 0. && off > 0. ->
        let disabled_pct = ((off /. base) -. 1.) *. 100. in
        let armed_pct = ((on /. off) -. 1.) *. 100. in
        Printf.printf
          "%-12s %-16s disabled %11.1f ns (%+.2f%% vs the identical \
           pipeline_sweep row: noise bound), armed %11.1f ns (%+.1f%%)\n"
          "adpcm" "telemetry" off disabled_pct on armed_pct;
        Some (base, off, on, disabled_pct, armed_pct)
    | _ -> None
  in
  if json then
    write_ledger out
      [
        ("bench", J.String "timing");
        ("quick", J.Bool quick);
        ( "workloads",
          J.List
            (List.map
               (fun (w, _, lats) ->
                 J.Obj
                   [
                     ("name", J.String w);
                     ("latencies", J.List (List.map (fun l -> J.Int l) lats));
                   ])
               workloads) );
        (* Shape of each workload's dependency net: its size (bits) and
           how many independent regions it falls into. *)
        ( "kernels",
          J.List
            (List.map
               (fun (w, g, _) ->
                 let net = Hls_timing.Bitnet.build (P.prepare_kernel g) in
                 J.Obj
                   [
                     ("name", J.String w);
                     ("bits", J.Int (Hls_timing.Bitnet.total_bits net));
                     ("regions", J.Int (Hls_timing.Bitnet.n_regions net));
                   ])
               workloads) );
        ( "results",
          J.List
            (List.map
               (fun (w, a, r, n, s) ->
                 J.Obj
                   [
                     ("workload", J.String w);
                     ("analysis", J.String a);
                     ("reference_ns_per_run", J.Float r);
                     ("bitnet_ns_per_run", J.Float n);
                     ("speedup", J.Float s);
                   ])
               rows) );
        ( "fragment_alloc",
          J.List
            (List.map
               (fun (w, o, n) ->
                 J.Obj
                   [
                     ("workload", J.String w);
                     ("latency", J.Int 14);
                     ("oracle_minor_words", J.Float o);
                     ("one_pass_minor_words", J.Float n);
                   ])
               frag_alloc) );
        (* The wire codec against its oracle, best of interleaved
           rounds (the gate's own timings). *)
        ( "wire_codec",
          J.List
            (List.map
               (fun (line, bytes, op, o, n) ->
                 J.Obj
                   [
                     ("line", J.String line);
                     ("bytes", J.Int bytes);
                     ("op", J.String op);
                     ("oracle_ns_per_run", J.Float o);
                     ("codec_ns_per_run", J.Float n);
                     ("speedup", J.Float (o /. n));
                   ])
               wire_codec) );
        (* Per-recipe deltas on the ADPCM decoder at the sweep's
           tightest latency: what each preset costs (engine alone,
           unverified) and what it buys the finished flow. *)
        ( "transforms",
          J.List
            (List.map
               (fun (spec, est, nb, na, db, da, cycle, saved) ->
                 J.Obj
                   ([
                      ("workload", J.String "adpcm");
                      ("recipe", J.String spec);
                    ]
                   @ (match est with
                     | Some e -> [ ("engine_ns_per_run", J.Float e) ]
                     | None -> [])
                   @ [
                       ("nodes_before", J.Int nb);
                       ("nodes_after", J.Int na);
                       ("depth_before", J.Int db);
                       ("depth_after", J.Int da);
                       ("cycle_ns", J.Float cycle);
                       ("cycle_saved_pct", J.Float saved);
                     ]))
               xform_rows) );
        (* Disabled-mode overhead is bounded by the delta between two
           measurements of the same unarmed sweep (pipeline_sweep/net
           and telemetry/off share every instruction); the armed figure
           prices metric recording itself. *)
        ( "telemetry",
          match telemetry with
          | None -> J.Null
          | Some (base, off, on, disabled_pct, armed_pct) ->
              J.Obj
                [
                  ("workload", J.String "adpcm");
                  ("pipeline_sweep_ns_per_run", J.Float base);
                  ("disabled_ns_per_run", J.Float off);
                  ("armed_ns_per_run", J.Float on);
                  ("disabled_overhead_noise_bound_pct", J.Float disabled_pct);
                  ("armed_overhead_pct", J.Float armed_pct);
                ] );
      ];
  section "Equivalence check: bit-sliced Hls_check vs the per-vector oracle";
  print_equivalence equivalence;
  if json then
    write_ledger out [ ("equivalence", equivalence_json ~quick equivalence) ];
  if assert_mode then begin
    (* A timing kernel, the one-pass fragmentation, the binder, the
       Verilog printer, the graph writer, the wire codec (all gated into
       [failed] before Bechamel) or the equivalence checker (timed before
       Bechamel, judged here) slower than its retained
       reference is a regression, not a tradeoff — fail the build loudly.
       So is a checker verdict the oracle disagrees with. *)
    List.iter
      (fun (w, _, _, same, o, c) ->
        if not same then begin
          failed := true;
          Printf.eprintf "bench-assert: %s/equivalence verdict differs from \
                          the oracle's\n" w
        end;
        if c > o then begin
          failed := true;
          Printf.eprintf "bench-assert: %s/equivalence at %.2fx, slower than \
                          its oracle\n" w (o /. c)
        end)
      equivalence;
    (* Gate the sections other benches merged into the same JSON file:
       the iteration bench must not lose cycles against its own
       one-shot, its incremental retime must not be a slowdown, and a
       fuzz section reporting any mismatch is a correctness regression
       regardless of speed. *)
    (match read_ledger out with
     | None -> ()
     | Some doc ->
         (match J.member "iteration" doc with
         | None -> ()
         | Some it ->
             (match Option.bind (J.member "workloads" it) J.to_list with
             | None -> ()
             | Some rows ->
                 List.iter
                   (fun r ->
                     let name =
                       Option.value ~default:"?"
                         (Option.bind (J.member "name" r) J.to_str)
                     in
                     match
                       ( Option.bind (J.member "one_shot_cycles" r) J.to_int,
                         Option.bind (J.member "iterated_cycles" r) J.to_int )
                     with
                     | Some one_shot, Some iterated when iterated > one_shot ->
                         failed := true;
                         Printf.eprintf
                           "bench-assert: iteration/%s went backwards (%d -> \
                            %d cycles)\n"
                           name one_shot iterated
                     | _ -> ())
                   rows);
             (match
                Option.bind (J.member "incremental_retime" it) (fun r ->
                    Option.bind (J.member "speedup" r) J.to_float)
              with
             | Some s when s < 1.0 ->
                 failed := true;
                 Printf.eprintf
                   "bench-assert: incremental retime at %.2fx, slower than \
                    from scratch\n"
                   s
             | _ ->
                 Printf.printf
                   "bench-assert: iteration section within bounds\n"));
         (match J.member "fuzz" doc with
         | None -> ()
         | Some fz ->
             (match Option.bind (J.member "mismatches" fz) J.to_int with
             | Some m when m > 0 ->
                 failed := true;
                 Printf.eprintf
                   "bench-assert: fuzz section recorded %d mismatch(es)\n" m
             | _ -> ());
             (match Option.bind (J.member "cases_per_s" fz) J.to_float with
             | Some r when r <= 0. ->
                 failed := true;
                 Printf.eprintf "bench-assert: fuzz throughput is zero\n"
             | _ -> Printf.printf "bench-assert: fuzz section within bounds\n")));
    if !failed then exit 1;
    print_endline
      "bench-assert: ok (arrival and deadline kernels, the one-pass \
       fragmentation, the binder, the Verilog printer, the graph writer, \
       the wire codec and the equivalence checker at or above their \
       references on every workload)"
  end

(* ------------------------------------------------------------------ *)
(* Feedback-guided iteration (lib/iter): cycles clawed back over the
   one-shot schedule at a latency with slack inside its clock tier, and
   the incremental timing recompute (Bitnet.rebuild_dirty +
   Arrival.update_of_net) against the from-scratch pair it must stay
   bit-identical to.  --json writes the "iteration" section of the
   ledger.                                                              *)

let iter_bench () =
  let { json; out; _ } = opts () in
  section "Feedback-guided iteration: cycles clawed back, incremental retime";
  let module Iter = Hls_iter.Iter in
  let registry w =
    match Hls_workloads.Catalog.find_graph w with
    | Some g -> g
    | None -> failwith (w ^ " missing from the workload catalog")
  in
  (* One-shot vs iterated at a slack latency (one step inside the
     14-cycle clock tier on all three workloads). *)
  let latency = 14 in
  let rows =
    List.map
      (fun wname ->
        let p = P.prepare (registry wname) in
        match P.run_iterated (P.make_config ~iterate:8 ()) p ~latency with
        | Error f -> failwith (wname ^ ": " ^ Hls_util.Failure.to_string f)
        | Ok (_, o) -> (wname, o))
      [ "adpcm-decoder"; "fir8"; "random240" ]
  in
  Printf.printf "%-14s %8s %9s %7s %6s %-13s %7s\n" "workload" "one-shot"
    "iterated" "rounds" "chain" "stop" "saved";
  List.iter
    (fun (w, o) ->
      Printf.printf "%-14s %8d %9d %7d %6d %-13s %6.1f%%\n" w
        o.Iter.o_initial_latency o.Iter.o_final_latency
        (List.length o.Iter.o_rounds) o.Iter.o_final_delta
        (Iter.stop_to_string o.Iter.o_stop)
        (Iter.saved_pct o))
    rows;
  (* Incremental retime against the from-scratch oracle it must match,
     on the multi-region workload the dirty-cone pruning is built for.
     The dirty set re-runs the dependency model for a handful of nodes;
     everything clean is blitted (net) or pruned (arrival). *)
  let kernel = P.prepare_kernel (registry "random240") in
  let net = Hls_timing.Bitnet.build kernel in
  let arrival = Hls_timing.Arrival.of_net net in
  let n = Hls_dfg.Graph.node_count kernel in
  let dirty = [ n / 4; n / 2; (3 * n) / 4 ] in
  let net_scratch_ns =
    best_ns (fun () -> Hls_timing.Bitnet.build kernel)
  in
  let net_incr_ns =
    best_ns (fun () ->
        match Hls_timing.Bitnet.rebuild_dirty net kernel ~dirty with
        | Some net' -> net'
        | None -> failwith "rebuild_dirty refused an unmoved layout")
  in
  let arr_scratch_ns = best_ns (fun () -> Hls_timing.Arrival.of_net net) in
  let arr_incr_ns =
    best_ns (fun () -> Hls_timing.Arrival.update_of_net net arrival ~dirty)
  in
  let retime_speedup =
    (net_scratch_ns +. arr_scratch_ns) /. (net_incr_ns +. arr_incr_ns)
  in
  Printf.printf
    "random240 retime (%d dirty of %d nodes): net %.0f -> %.0f ns, arrival \
     %.0f -> %.0f ns, %.2fx end to end\n"
    (List.length dirty) n net_scratch_ns net_incr_ns arr_scratch_ns
    arr_incr_ns retime_speedup;
  if json then begin
    let iteration =
      J.Obj
        [
          ("latency", J.Int latency);
          ( "workloads",
            J.List
              (List.map
                 (fun (w, o) ->
                   J.Obj
                     [
                       ("name", J.String w);
                       ("one_shot_cycles", J.Int o.Iter.o_initial_latency);
                       ("iterated_cycles", J.Int o.Iter.o_final_latency);
                       ("rounds", J.Int (List.length o.Iter.o_rounds));
                       ("final_chain_delta", J.Int o.Iter.o_final_delta);
                       ("stop", J.String (Iter.stop_to_string o.Iter.o_stop));
                       ("saved_pct", J.Float (Iter.saved_pct o));
                     ])
                 rows) );
          ( "incremental_retime",
            J.Obj
              [
                ("workload", J.String "random240");
                ("dirty_nodes", J.Int (List.length dirty));
                ("total_nodes", J.Int n);
                ("net_scratch_ns", J.Float net_scratch_ns);
                ("net_incremental_ns", J.Float net_incr_ns);
                ("arrival_scratch_ns", J.Float arr_scratch_ns);
                ("arrival_incremental_ns", J.Float arr_incr_ns);
                ("speedup", J.Float retime_speedup);
              ] );
        ]
    in
    write_ledger out [ ("iteration", iteration) ]
  end

(* ------------------------------------------------------------------ *)
(* Differential fuzzing throughput (lib/fuzz): cases per second over a
   fixed-seed run of all three lanes.  A mismatch here is a correctness
   failure, not a slow bench — the run aborts the bench loudly.  --json
   writes the "fuzz" section of the ledger.                            *)

let fuzz_bench () =
  let { json; out; _ } = opts () in
  section "Differential fuzzing throughput (lib/fuzz), fixed seed";
  let module D = Hls_fuzz.Driver in
  let cfg =
    D.make_config ~seed:7 ~budget:120 ~lanes:[ D.Spec; D.Diff; D.Codec ]
      ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "hls_fuzz_bench")
      ~max_seconds:90. ~codec_case:Hls_api.Fuzz_codec.case ()
  in
  let s = D.run cfg in
  if s.D.s_mismatches > 0 then
    failwith
      (Printf.sprintf "fuzz bench found %d mismatch(es); see %s"
         s.D.s_mismatches cfg.D.dir);
  Printf.printf "%-7s %7s %7s %8s\n" "lane" "cases" "skipped" "cases/s";
  List.iter
    (fun (l : D.lane_summary) ->
      Printf.printf "%-7s %7d %7d %8.1f\n" l.D.l_lane l.D.l_cases
        l.D.l_skipped
        (float_of_int l.D.l_cases /. Float.max 1e-9 s.D.s_wall_s))
    s.D.s_lanes;
  let cases_per_s = float_of_int s.D.s_cases /. Float.max 1e-9 s.D.s_wall_s in
  Printf.printf
    "total: %d cases in %.1f s (%.1f cases/s), %d coverage features, 0 \
     mismatches\n"
    s.D.s_cases s.D.s_wall_s cases_per_s s.D.s_coverage;
  if json then begin
    let fuzz =
      J.Obj
        [
          ("seed", J.Int s.D.s_seed);
          ("cases", J.Int s.D.s_cases);
          ("mismatches", J.Int s.D.s_mismatches);
          ("skipped", J.Int s.D.s_skipped);
          ("coverage", J.Int s.D.s_coverage);
          ("wall_s", J.Float s.D.s_wall_s);
          ("cases_per_s", J.Float cases_per_s);
          ( "lanes",
            J.List
              (List.map
                 (fun (l : D.lane_summary) ->
                   J.Obj
                     [
                       ("lane", J.String l.D.l_lane);
                       ("cases", J.Int l.D.l_cases);
                       ("mismatches", J.Int l.D.l_mismatches);
                       ("skipped", J.Int l.D.l_skipped);
                     ])
                 s.D.s_lanes) );
        ]
    in
    write_ledger out [ ("fuzz", fuzz) ]
  end

(* ------------------------------------------------------------------ *)
(* Behavioural transformation recipes: what each preset buys on the
   ADPCM workloads before fragmentation even starts (node/depth deltas
   from the plan log) and what lands after the full flow (cycle, area).
   Every application runs under the every-pass equivalence gate, so a
   row in this table is a verified rewrite, not a hopeful one.          *)

let xform_bench () =
  section "Behavioural transformation recipes (lib/xform), ADPCM workloads";
  let module X = Hls_xform in
  let latency = 4 in
  Printf.printf "%-16s %-10s %11s %11s %9s %6s %7s %7s\n" "workload" "recipe"
    "nodes" "depth" "cycle/ns" "gates" "checks" "fired";
  List.iter
    (fun wname ->
      let g =
        match Hls_workloads.Catalog.find_graph wname with
        | Some g -> g
        | None -> failwith (wname ^ " missing from the workload catalog")
      in
      List.iter
        (fun spec ->
          let recipe = X.Recipe.of_string_exn spec in
          let o = X.Engine.apply ~policy:X.Verify.Every_pass recipe g in
          if o.X.Engine.rejected > 0 then
            failwith (wname ^ "/" ^ spec ^ ": a pass was rejected");
          let fired =
            List.length
              (List.filter
                 (fun (e : X.Engine.entry) -> e.X.Engine.e_fired)
                 o.X.Engine.log)
          in
          let r =
            optimized
              ~transform:recipe g ~latency
          in
          Printf.printf "%-16s %-10s %4d -> %4d %4d -> %4d %9.2f %6d %7d %7d\n"
            wname spec (Hls_dfg.Graph.node_count g)
            (Hls_dfg.Graph.node_count o.X.Engine.graph) (X.Plan.depth g)
            (X.Plan.depth o.X.Engine.graph) r.P.opt_report.P.cycle_ns
            r.P.opt_report.P.area.Datapath.total_gates o.X.Engine.checks fired)
        [ "none"; "cleanup"; "standard"; "aggressive" ];
      print_newline ())
    [ "adpcm-iaq"; "adpcm-ttd"; "adpcm-opfc-sca"; "adpcm-decoder" ]

let all_tables () =
  fig1_fig2 ();
  table1 ();
  fig3 ();
  table2 ();
  table3 ();
  extra ();
  fig4 ();
  resource_curve ();
  ablations ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "all" | "tables" -> all_tables ()
  | "timing" -> timing ()
  | "xform" -> xform_bench ()
  | "iter" -> iter_bench ()
  | "fuzz" -> fuzz_bench ()
  | "fig1" | "fig2" -> fig1_fig2 ()
  | "table1" -> table1 ()
  | "fig3" | "fig3h" -> fig3 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "extra" -> extra ()
  | "resource" -> resource_curve ()
  | "fig4" -> fig4 ()
  | "ablations" -> ablations ()
  | other ->
      prerr_endline
        ("unknown experiment " ^ other
       ^ " (try: tables, timing, xform, iter, fuzz, fig1, table1, fig3, \
          table2, table3, extra, resource, fig4, ablations)");
      exit 1
