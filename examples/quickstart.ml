(* Quickstart: the paper's motivational example end to end.

   Parses the Fig. 1a behavioural specification from source text, runs the
   three-phase presynthesis transformation for a 3-cycle schedule, prints
   the transformed specification (the Fig. 2a shape), the fragment
   schedule, and the Table-I-style comparison — then double-checks by
   bit-true simulation that the transformed circuit still adds. *)

module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)

let spec_source =
  {|
# Three data-dependent 16-bit additions (paper, Fig. 1a).
module example;
input A : 16;
input B : 16;
input D : 16;
input F : 16;
output G : 16;
var C : 16;
var E : 16;
C = A + B;
E = C + D;
G = E + F;
end
|}

let () =
  print_endline "== 1. parse the behavioural specification";
  let graph =
    match Hls_speclang.Elaborate.from_string_result spec_source with
    | Ok g -> g
    | Error m -> failwith m
  in
  Format.printf "parsed %d operations over %d input ports@."
    (Hls_dfg.Graph.behavioural_op_count graph)
    (List.length graph.Hls_dfg.Graph.inputs);

  print_endline "\n== 2. transform for a 3-cycle schedule";
  let latency = 3 in
  let opt = optimized graph ~latency in
  let plan = opt.P.transformed.Hls_fragment.Transform.plan in
  Format.printf
    "critical path: %d chained 1-bit additions; estimated cycle: %d@."
    plan.Hls_fragment.Mobility.critical plan.Hls_fragment.Mobility.n_bits;
  print_endline "\ntransformed specification:";
  print_string (Hls_speclang.Emit.emit opt.P.transformed.Hls_fragment.Transform.graph);

  print_endline "\n== 3. conventional schedule of the fragments";
  for cycle = 1 to latency do
    let adds = Hls_sched.Frag_sched.adds_in_cycle opt.P.schedule cycle in
    Format.printf "cycle %d: %s@." cycle
      (String.concat ", " (List.map (fun n -> n.Hls_dfg.Types.label) adds))
  done;

  print_endline "\n== 4. compare against the conventional and BLC flows";
  let conv = P.conventional graph ~latency in
  let blc = P.blc graph ~latency:1 in
  Format.printf "%a@.@.%a@.@.%a@." P.pp_report conv P.pp_report blc
    P.pp_report opt.P.opt_report;

  print_endline "\n== 5. verify bit-true equivalence";
  (match P.check_optimized_equivalence ~trials:200 graph opt with
  | Ok () -> print_endline "transformed specification is bit-true: OK"
  | Error m -> failwith m);

  (* And one concrete vector, end to end through the cycle-accurate RTL. *)
  let mk v = Hls_bitvec.of_int ~width:16 v in
  let inputs = [ ("A", mk 11111); ("B", mk 22222); ("D", mk 3333); ("F", mk 7) ] in
  let rtl = Hls_rtl.Cycle_sim.run_fragment opt.P.schedule ~inputs in
  Format.printf "RTL run: G = %d (expected %d)@."
    (Hls_bitvec.to_int (List.assoc "G" rtl.Hls_rtl.Cycle_sim.fr_outputs))
    ((11111 + 22222 + 3333 + 7) land 0xFFFF);

  print_endline "\n== 6. all the way down: gate-level netlist";
  let netlist = Hls_rtl.Elaborate_netlist.elaborate opt.P.schedule in
  let stats = Hls_rtl.Netlist.stats netlist in
  Format.printf
    "elaborated %d full adders, %d muxes, %d flip-flops, %d logic cells@."
    stats.Hls_rtl.Netlist.n_fa stats.Hls_rtl.Netlist.n_mux
    stats.Hls_rtl.Netlist.n_dff stats.Hls_rtl.Netlist.n_logic;
  let gates = Hls_rtl.Netlist.run netlist ~cycles:3 ~inputs in
  Format.printf "gate-level run over 3 clock cycles: G = %d@."
    (Hls_bitvec.to_int (List.assoc "G" gates))
