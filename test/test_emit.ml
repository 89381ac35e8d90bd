(* The RTL printers and the elaborator feeding them against the retained
   pre-rewrite implementations ([Hls_oracle.Rtl_oracle]): the same cells
   in the same order over the same nets, and byte-identical Verilog,
   Verilog testbench and netlist VHDL text.  Three input sets: every
   registry workload at λ 14 (what [make emit-smoke] prints), the chain3
   and sat_accumulate fixtures, and generated designs of the shape the
   cold benchmark sends (the standard transformation recipe, λ 3–4). *)

module P = Hls_core.Pipeline
module N = Hls_rtl.Netlist
module Oracle = Hls_oracle.Rtl_oracle
module Graph = Hls_dfg.Graph
module Prng = Hls_util.Prng

let same_text what ~expected got =
  if not (String.equal expected got) then begin
    let n = min (String.length expected) (String.length got) in
    let i = ref 0 in
    while !i < n && expected.[!i] = got.[!i] do
      incr i
    done;
    let around s =
      let lo = max 0 (!i - 40) in
      String.sub s lo (min 80 (String.length s - lo))
    in
    Alcotest.failf
      "%s: text differs at byte %d (lengths %d and %d)@.oracle: %S@.got:    %S"
      what !i (String.length expected) (String.length got) (around expected)
      (around got)
  end

(* Elaborate [r]'s schedule both ways and print it in all three formats,
   as the emit verb does (testbench vectors drawn with seed 7). *)
let check_design what g (r : P.optimized_result) =
  let s = r.P.schedule in
  let latency = s.Hls_sched.Frag_sched.latency in
  let nl = Hls_rtl.Elaborate_netlist.elaborate s in
  let onl = Oracle.Elaborate_netlist.elaborate s in
  Alcotest.(check int)
    (what ^ ": net count") (N.net_count onl) (N.net_count nl);
  if N.cells nl <> N.cells onl then Alcotest.failf "%s: cells differ" what;
  if N.input_ports nl <> N.input_ports onl
     || N.output_ports nl <> N.output_ports onl
  then Alcotest.failf "%s: ports differ" what;
  let name = Hls_speclang.Names.sanitize (Graph.name g) in
  let prng = Prng.create ~seed:7 in
  let vectors =
    List.init 5 (fun _ ->
        let inputs = Hls_sim.random_inputs g prng in
        (inputs, Hls_sim.outputs g ~inputs))
  in
  same_text (what ^ " verilog")
    ~expected:(Oracle.Verilog.emit ~name onl)
    (Hls_rtl.Verilog.emit ~name nl);
  same_text (what ^ " testbench")
    ~expected:(Oracle.Verilog.testbench ~name onl ~cycles:latency ~vectors)
    (Hls_rtl.Verilog.testbench ~name nl ~cycles:latency ~vectors);
  same_text (what ^ " vhdl")
    ~expected:(Oracle.Vhdl_netlist.emit ~name onl)
    (Hls_rtl.Vhdl_netlist.emit ~name nl)

let run_or_fail what cfg g ~latency =
  match P.run_graph cfg g ~latency with
  | Ok r -> r
  | Error f ->
      Alcotest.failf "%s: %s" what (Hls_util.Failure.to_string f)

let test_registry () =
  List.iter
    (fun e ->
      let name = e.Hls_workloads.Catalog.name in
      let g = Hls_workloads.Catalog.graph e in
      check_design name g (run_or_fail name P.default_config g ~latency:14))
    (Hls_workloads.Catalog.all ())

let test_fixtures () =
  let sat_acc =
    match
      Hls_speclang.Elaborate.from_string_result
        (In_channel.with_open_text "specs/sat_accumulate.spec"
           In_channel.input_all)
    with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (what, g) ->
      check_design what g (run_or_fail what P.default_config g ~latency:3))
    [ ("chain3", Hls_workloads.Motivational.chain3 ()); ("sat_acc", sat_acc) ]

(* The cold benchmark's generator profile; designs the flow rejects
   (infeasible at the drawn latency) are skipped, not counted. *)
let test_generated () =
  let profile =
    { Hls_fuzz.Gen.default_profile with
      n_inputs = 5; n_stmts = 14; n_outputs = 3; depth = 3; max_width = 16 }
  in
  let cfg =
    P.make_config ~transform:(Hls_xform.Recipe.of_string_exn "standard") ()
  in
  let prng = Prng.create ~seed:23 in
  let checked = ref 0 and drawn = ref 0 in
  while !checked < 50 do
    incr drawn;
    if !drawn > 500 then
      Alcotest.failf "only %d of %d generated designs ran" !checked !drawn;
    let src = Hls_fuzz.Gen.source prng profile in
    let latency = 3 + Prng.int prng 2 in
    match Hls_speclang.Elaborate.from_string_result src with
    | Error _ -> ()
    | Ok g -> (
        match P.run_graph cfg g ~latency with
        | Error _ -> ()
        | Ok r ->
            check_design (Printf.sprintf "design %d" !drawn) g r;
            incr checked)
  done

let suite =
  [
    Alcotest.test_case "registry λ 14 = oracle" `Quick test_registry;
    Alcotest.test_case "fixtures = oracle" `Quick test_fixtures;
    Alcotest.test_case "generated designs = oracle" `Quick test_generated;
  ]
