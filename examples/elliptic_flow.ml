(* The fifth-order elliptic wave filter through the full flow at the
   paper's three Table-II latencies, plus a functional demonstration: the
   transformed datapath filters an actual waveform, one λ-cycle iteration
   per sample, with the state variables fed back externally. *)

module P = Hls_core.Pipeline

(* The deprecated [P.optimized] wrapper collapsed into [Pipeline.run];
   unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    P.run_graph (P.make_config ?lib ?policy ?balance ?transform ()) g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)
module Bv = Hls_bitvec

let () =
  let graph = Hls_workloads.Benchmarks.elliptic () in
  Format.printf "elliptic wave filter: %d operations, critical path %d delta@."
    (Hls_dfg.Graph.behavioural_op_count graph)
    (Hls_timing.Critical_path.critical_delta (Hls_kernel.Extract.run graph));

  print_endline "\n== Table II rows (elliptic)";
  List.iter
    (fun latency ->
      let conv = P.conventional graph ~latency in
      let opt = optimized graph ~latency in
      let r = opt.P.opt_report in
      Format.printf
        "λ=%-2d  cycle %6.2f -> %5.2f ns (saved %4.1f %%)   fragments: %d@."
        latency conv.P.cycle_ns r.P.cycle_ns
        (P.pct_saved ~original:conv.P.cycle_ns ~optimized:r.P.cycle_ns)
        r.P.op_count;
      match P.check_optimized_equivalence ~trials:20 graph opt with
      | Ok () -> ()
      | Error m -> failwith ("equivalence: " ^ m))
    [ 11; 6; 4 ];

  print_endline "\n== filtering a waveform through the optimized datapath";
  let latency = 6 in
  let opt = optimized graph ~latency in
  (* Drive a step + tone mixture through 24 iterations; states start at 0
     and are fed back from the outputs each sample. *)
  let state = Array.make 7 (Bv.zero 16) in
  let out_names = [ "sv1_next"; "sv2_next"; "sv3_next"; "sv4_next" ] in
  let samples =
    List.init 24 (fun k ->
        let v =
          (2000. *. sin (float_of_int k /. 3.)) +. if k >= 8 then 4000. else 0.
        in
        int_of_float v)
  in
  List.iteri
    (fun k sample ->
      let inputs =
        ("inp", Bv.of_int ~width:16 sample)
        :: List.mapi
             (fun i v -> (Printf.sprintf "sv%d" (i + 1), v))
             (Array.to_list state)
      in
      (* One hardware iteration = λ clock cycles of the scheduled RTL. *)
      let run = Hls_rtl.Cycle_sim.run_fragment opt.P.schedule ~inputs in
      let out = List.assoc "out" run.Hls_rtl.Cycle_sim.fr_outputs in
      (* Feed the four updated state outputs back (the remaining three
         state variables hold their ladder values). *)
      List.iteri
        (fun i name ->
          state.(i) <- List.assoc name run.Hls_rtl.Cycle_sim.fr_outputs)
        out_names;
      if k mod 4 = 0 then
        Format.printf "sample %2d: in %6d  out %6d@." k sample
          (Bv.to_signed_int out))
    samples;

  print_endline "\n== cost breakdown at λ=6";
  let conv = P.conventional graph ~latency in
  Format.printf "conventional: %a@." Hls_alloc.Datapath.pp_area conv.P.area;
  Format.printf "optimized:    %a@." Hls_alloc.Datapath.pp_area
    opt.P.opt_report.P.area
