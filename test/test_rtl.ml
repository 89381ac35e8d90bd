module Frag_sched = Hls_sched.Frag_sched
module Cycle_sim = Hls_rtl.Cycle_sim
module Motivational = Hls_workloads.Motivational
module Benchmarks = Hls_workloads.Benchmarks
module Bv = Hls_bitvec

let frag_schedule g ~latency =
  let kernel = Hls_kernel.Extract.run g in
  let tr = Hls_fragment.Transform.run kernel ~latency in
  Frag_sched.schedule tr

(* Cycle-accurate execution of the fragment schedule matches the
   behavioural reference on random vectors. *)
let check_cycle_sim ?(trials = 30) ~seed g ~latency =
  let s = frag_schedule g ~latency in
  let prng = Hls_util.Prng.create ~seed in
  for trial = 1 to trials do
    let inputs = Hls_sim.random_inputs g prng in
    let reference = Hls_sim.outputs g ~inputs in
    let run = Cycle_sim.run_fragment s ~inputs in
    List.iter
      (fun (name, v) ->
        let got = List.assoc name run.Cycle_sim.fr_outputs in
        if not (Bv.equal v got) then
          Alcotest.failf "trial %d: output %s: behavioural %s, RTL %s" trial
            name (Bv.to_string v) (Bv.to_string got))
      reference
  done;
  s

let test_cycle_sim_chain3 () =
  let s = check_cycle_sim ~seed:31 (Motivational.chain3 ()) ~latency:3 in
  let inputs =
    [ ("A", Bv.of_int ~width:16 1000); ("B", Bv.of_int ~width:16 2000);
      ("D", Bv.of_int ~width:16 3000); ("F", Bv.of_int ~width:16 4000) ]
  in
  let run = Cycle_sim.run_fragment s ~inputs in
  Alcotest.(check bool) "some reads cross cycles" true
    (run.Cycle_sim.fr_cross_cycle_reads > 0);
  Alcotest.(check bool) "some reads chain in-cycle" true
    (run.Cycle_sim.fr_chained_reads > 0)

let test_cycle_sim_fig3 () =
  ignore (check_cycle_sim ~seed:32 (Motivational.fig3 ()) ~latency:3)

let test_cycle_sim_diffeq () =
  ignore (check_cycle_sim ~seed:33 ~trials:15 (Benchmarks.diffeq ()) ~latency:5)

let test_cycle_sim_fir2 () =
  ignore (check_cycle_sim ~seed:34 ~trials:15 (Benchmarks.fir2 ()) ~latency:3)

let test_cycle_sim_elliptic () =
  ignore (check_cycle_sim ~seed:35 ~trials:5 (Benchmarks.elliptic ()) ~latency:6)

let test_cycle_sim_adpcm () =
  List.iter
    (fun (_, g, latency) ->
      ignore (check_cycle_sim ~seed:36 ~trials:10 g ~latency))
    (Hls_workloads.Adpcm.table3_set ())

let test_op_cycle_sim () =
  let g = Motivational.fig3 () in
  let t = Hls_sched.List_sched.schedule g ~latency:3 in
  let prng = Hls_util.Prng.create ~seed:37 in
  for _ = 1 to 20 do
    let inputs = Hls_sim.random_inputs g prng in
    let reference = Hls_sim.outputs g ~inputs in
    let run = Cycle_sim.run_op_schedule t ~inputs in
    List.iter
      (fun (name, v) ->
        Alcotest.(check string) name (Bv.to_string v)
          (Bv.to_string (List.assoc name run.Cycle_sim.or_outputs)))
      reference
  done

(* The controller of the chain3 schedule, one FSM state per cycle: the
   additions each state activates, and the stored runs each state's
   registers capture (a run is captured at the end of the cycle that
   produces it). *)
let test_control_extraction () =
  let s = frag_schedule (Motivational.chain3 ()) ~latency:3 in
  let states = Hls_util.List_ext.range 1 (s.Frag_sched.latency + 1) in
  Alcotest.(check int) "three states" 3 (List.length states);
  let activations =
    List.map (fun cycle -> List.length (Frag_sched.adds_in_cycle s cycle)) states
  in
  Alcotest.(check (list int)) "activations per state" [ 3; 3; 3 ] activations;
  (* Every addition appears in exactly one state. *)
  Alcotest.(check int) "nine activations" 9
    (Hls_util.List_ext.sum_by Fun.id activations);
  let runs = Hls_alloc.Bind_frag.stored_runs s in
  let captured cycle =
    List.filter_map
      (fun (r : Hls_alloc.Bind_frag.stored_run) ->
        if r.sr_from = cycle + 1 then Some r.sr_width else None)
      runs
  in
  (* chain3 stores 5 bits out of cycle 1 and 5 out of cycle 2 (§2). *)
  Alcotest.(check int) "captured bits" 10
    (Hls_util.List_ext.sum_by
       (fun cycle -> Hls_util.List_ext.sum_by Fun.id (captured cycle))
       states);
  Alcotest.(check int) "cycle-1 captures 5 bits" 5
    (Hls_util.List_ext.sum_by Fun.id (captured 1))

(* Property: cycle-accurate simulation matches the behavioural reference on
   random additive DAGs across latencies. *)
let prop_cycle_sim_matches =
  QCheck.Test.make ~name:"RTL cycle sim ≡ behavioural sim" ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 1 5))
    (fun (seed, latency) ->
      if latency < 1 then true
      else begin
        let g =
          Hls_workloads.Random_dfg.generate
            ~profile:Hls_workloads.Random_dfg.additive_profile ~seed ()
        in
        let s = frag_schedule g ~latency in
        let prng = Hls_util.Prng.create ~seed:(seed + 13) in
        List.for_all
          (fun _ ->
            let inputs = Hls_sim.random_inputs g prng in
            let reference = Hls_sim.outputs g ~inputs in
            let run = Cycle_sim.run_fragment s ~inputs in
            List.for_all
              (fun (name, v) ->
                Bv.equal v (List.assoc name run.Cycle_sim.fr_outputs))
              reference)
          (Hls_util.List_ext.range 0 10)
      end)

let suite =
  [
    Alcotest.test_case "cycle sim: chain3" `Quick test_cycle_sim_chain3;
    Alcotest.test_case "cycle sim: fig3" `Quick test_cycle_sim_fig3;
    Alcotest.test_case "cycle sim: diffeq" `Quick test_cycle_sim_diffeq;
    Alcotest.test_case "cycle sim: fir2" `Quick test_cycle_sim_fir2;
    Alcotest.test_case "cycle sim: elliptic" `Slow test_cycle_sim_elliptic;
    Alcotest.test_case "cycle sim: adpcm" `Quick test_cycle_sim_adpcm;
    Alcotest.test_case "cycle sim: op schedule" `Quick test_op_cycle_sim;
    Alcotest.test_case "control extraction" `Quick test_control_extraction;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_cycle_sim_matches ]
