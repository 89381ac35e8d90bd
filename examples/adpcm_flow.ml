(* Table III workload: the three ADPCM G.721 decoder modules, each
   synthesized at the latency a conventional tool would pick in
   free-floating mode, then at that same latency with the presynthesis
   transformation — and the optimized IAQ emitted as its gate-level
   VHDL netlist. *)

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
  print_endline "== ADPCM decoder modules (Table III)";
  List.iter
    (fun (name, graph, paper_latency) ->
      let free = P.free_floating_latency graph in
      let latency = paper_latency in
      let conv = P.conventional graph ~latency in
      let opt = optimized graph ~latency in
      let r = opt.P.opt_report in
      Format.printf
        "%-10s λ=%-2d (free-floating would pick %d): cycle %5.2f -> %5.2f ns \
         (saved %4.1f %%), datapath %5d -> %5d gates@."
        name latency free conv.P.cycle_ns r.P.cycle_ns
        (P.pct_saved ~original:conv.P.cycle_ns ~optimized:r.P.cycle_ns)
        (Hls_alloc.Datapath.datapath_gates Hls_techlib.default conv.P.datapath)
        (Hls_alloc.Datapath.datapath_gates Hls_techlib.default r.P.datapath);
      match P.check_optimized_equivalence ~trials:40 graph opt with
      | Ok () -> ()
      | Error m -> failwith (name ^ ": " ^ m))
    (Hls_workloads.Adpcm.table3_set ());

  print_endline "\n== one concrete IAQ decode through the scheduled RTL";
  let graph = Hls_workloads.Adpcm.iaq () in
  let opt = optimized graph ~latency:3 in
  let inputs =
    [
      ("dqln", Hls_bitvec.of_int ~width:12 137);
      ("y", Hls_bitvec.of_int ~width:13 1720);
      ("antilog", Hls_bitvec.of_int ~width:12 260);
      ("sign", Hls_bitvec.of_int ~width:1 1);
    ]
  in
  let behavioural = Hls_sim.outputs graph ~inputs in
  let rtl = Hls_rtl.Cycle_sim.run_fragment opt.P.schedule ~inputs in
  Format.printf "dq (behavioural) = %d, dq (RTL, 3 cycles) = %d@."
    (Hls_bitvec.to_signed_int (List.assoc "dq" behavioural))
    (Hls_bitvec.to_signed_int (List.assoc "dq" rtl.Hls_rtl.Cycle_sim.fr_outputs));

  print_endline "\n== netlist VHDL of the optimized IAQ (first 40 lines)";
  let nl = Hls_rtl.Elaborate_netlist.elaborate opt.P.schedule in
  let vhdl = Hls_rtl.Vhdl_netlist.emit ~name:"iaq" nl in
  String.split_on_char '\n' vhdl
  |> Hls_util.List_ext.take 40
  |> List.iter print_endline;
  print_endline "..."
