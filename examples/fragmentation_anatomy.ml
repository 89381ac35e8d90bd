(* Anatomy of the transformation on the paper's Fig. 3 DFG: prints the
   bit-level arrival/deadline tables, the per-operation fragments with
   their mobilities (the paper's Figs. 3 c-f), the scheduled result
   (Fig. 3 g) and the final comparison (Fig. 3 h) — a guided tour of every
   phase for readers following along with the paper. *)

module Arrival = Hls_timing.Arrival
module Deadline = Hls_timing.Deadline
module Mobility = Hls_fragment.Mobility
module Frag_sched = Hls_sched.Frag_sched
module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)

let () =
  let g = Hls_workloads.Motivational.fig3 () in
  let latency = 3 in
  print_endline "== the DFG (paper Fig. 3a)";
  Format.printf "%a@." Hls_dfg.Graph.pp g;

  let critical = Hls_timing.Critical_path.critical_delta g in
  let n_bits =
    Hls_timing.Critical_path.cycle_delta_for_latency ~critical ~latency
  in
  Format.printf
    "@.== phase 2: critical path %d delta; for latency %d the cycle is \
     ceil(%d/%d) = %d chained 1-bit additions@."
    critical latency critical latency n_bits;

  print_endline "\n== bit-level arrival (ASAP) and deadline (ALAP) slots";
  let arr = Arrival.compute g in
  let dl = Deadline.compute g ~total_slots:(latency * n_bits) in
  Printf.printf "%-4s %-28s %s\n" "op" "arrival slots (bit 0 first)"
    "deadline slots";
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      let id = n.Hls_dfg.Types.id in
      let slots f =
        String.concat " "
          (List.map
             (fun bit -> string_of_int (f ~id ~bit))
             (Hls_util.List_ext.range 0 n.Hls_dfg.Types.width))
      in
      Printf.printf "%-4s %-28s %s\n" n.Hls_dfg.Types.label
        (slots (fun ~id ~bit -> Arrival.slot arr ~id ~bit))
        (slots (fun ~id ~bit -> Deadline.slot dl ~id ~bit)))
    g;

  let sl =
    Hls_timing.Critical_path.slack_summary g ~total_slots:(latency * n_bits)
  in
  Format.printf
    "slack: %d of %d bits are critical (zero slack); max slack %d delta@."
    sl.Hls_timing.Critical_path.sl_zero
    sl.Hls_timing.Critical_path.sl_total_bits
    sl.Hls_timing.Critical_path.sl_max;

  print_endline
    "\n== phase 3: fragments and their mobilities (paper Figs. 3 c-f)";
  let plan = Mobility.compute g ~latency in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      let frags = plan.Mobility.per_node.(n.Hls_dfg.Types.id) in
      let show (f : Mobility.frag) =
        if Mobility.is_fixed f then
          Printf.sprintf "%s[%d:%d]@cycle%d" n.Hls_dfg.Types.label f.f_hi
            f.f_lo f.f_asap
        else
          Printf.sprintf "%s[%d:%d] mobile %d..%d" n.Hls_dfg.Types.label
            f.f_hi f.f_lo f.f_asap f.f_alap
      in
      Printf.printf "%-4s -> %s\n" n.Hls_dfg.Types.label
        (String.concat ", " (List.map show frags)))
    g;

  print_endline "\n== conventional schedule of the fragments (paper Fig. 3g)";
  let opt = optimized g ~latency in
  for cycle = 1 to latency do
    Printf.printf "cycle %d: %s\n" cycle
      (String.concat ", "
         (List.map
            (fun n -> n.Hls_dfg.Types.label)
            (Frag_sched.adds_in_cycle opt.P.schedule cycle)))
  done;
  Printf.printf "achieved chain per cycle: %d delta (budget %d)\n"
    (Frag_sched.used_delta opt.P.schedule)
    n_bits;

  print_endline "\n== comparison (paper Fig. 3h)";
  let conv = P.conventional g ~latency in
  Format.printf "conventional: %a@." Hls_alloc.Datapath.pp_area conv.P.area;
  Format.printf "optimized:    %a@." Hls_alloc.Datapath.pp_area
    opt.P.opt_report.P.area;
  Format.printf "cycle %.2f -> %.2f ns (%.1f %% saved; paper: 62 %%)@."
    conv.P.cycle_ns opt.P.opt_report.P.cycle_ns
    (P.pct_saved ~original:conv.P.cycle_ns
       ~optimized:opt.P.opt_report.P.cycle_ns)
