(* Cross-model consistency: the independent models of the same design —
   area summary, stored runs, registers, gate-level netlist —
   must agree with each other on the quantities they share. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Frag_sched = Hls_sched.Frag_sched
module Bind_frag = Hls_alloc.Bind_frag
module Datapath = Hls_alloc.Datapath
module N = Hls_rtl.Netlist

let frag_schedule g ~latency =
  let kernel = Hls_kernel.Extract.run g in
  let tr = Hls_fragment.Transform.run kernel ~latency in
  Frag_sched.schedule tr

let fixtures () =
  [
    ("chain3", frag_schedule (Hls_workloads.Motivational.chain3 ()) ~latency:3);
    ("fig3", frag_schedule (Hls_workloads.Motivational.fig3 ()) ~latency:3);
    ("fir2", frag_schedule (Hls_workloads.Benchmarks.fir2 ()) ~latency:3);
    ("iaq", frag_schedule (Hls_workloads.Adpcm.iaq ()) ~latency:3);
  ]

(* Left-edge registers hold every stored run exactly once, and register
   bits never exceed the raw stored bits. *)
let test_registers_cover_runs () =
  List.iter
    (fun (name, s) ->
      let runs = Bind_frag.stored_runs s in
      let regs = Bind_frag.registers s in
      let values =
        Hls_util.List_ext.sum_by
          (fun (r : Hls_alloc.Lifetime.register) ->
            List.length r.Hls_alloc.Lifetime.reg_values)
          regs
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: one interval per run" name)
        (List.length runs) values;
      Alcotest.(check bool)
        (Printf.sprintf "%s: shared bits <= raw bits" name)
        true
        (Hls_alloc.Lifetime.total_register_bits regs
        <= Hls_util.List_ext.sum_by (fun r -> r.Bind_frag.sr_width) runs))
    (fixtures ())

(* The netlist's capture flops equal the stored bits (plus FSM ring and
   output-port captures, which are identifiable). *)
let test_netlist_dff_accounting () =
  List.iter
    (fun (name, s) ->
      let nl = Hls_rtl.Elaborate_netlist.elaborate s in
      let stats = N.stats nl in
      let runs = Bind_frag.stored_runs s in
      let stored =
        Hls_util.List_ext.sum_by (fun r -> r.Bind_frag.sr_width) runs
      in
      let g = Frag_sched.graph s in
      (* Output capture flops cover the underlying addition bits the
         output cones reach (several per output bit through muxes), so the
         bound is: ring + stored <= dffs <= ring + stored + all add bits. *)
      let add_bits = Graph.total_add_bits g in
      Alcotest.(check bool)
        (Printf.sprintf "%s: dff accounting (%d)" name stats.N.n_dff)
        true
        (stats.N.n_dff >= stored + s.Frag_sched.latency
        && stats.N.n_dff <= stored + s.Frag_sched.latency + add_bits))
    (fixtures ())

(* The netlist's FA population matches the FU model's bit total within the
   per-FU carry-column slack. *)
let test_netlist_fa_vs_fu_model () =
  List.iter
    (fun (name, s) ->
      let nl = Hls_rtl.Elaborate_netlist.elaborate s in
      let stats = N.stats nl in
      let dp = Bind_frag.bind s in
      let model =
        Hls_util.List_ext.sum_by
          (fun (fu : Datapath.fu) -> fu.Datapath.fu_width)
          dp.Datapath.fus
      in
      let fus = List.length dp.Datapath.fus in
      Alcotest.(check bool)
        (Printf.sprintf "%s: FA %d vs model %d (+%d FUs slack)" name
           stats.N.n_fa model fus)
        true
        (stats.N.n_fa >= model && stats.N.n_fa <= model + (3 * fus)))
    (fixtures ())

(* The datapath's achieved chain equals the per-cycle profile's peak. *)
let test_chain_vs_profile () =
  List.iter
    (fun (name, s) ->
      let peak =
        List.fold_left
          (fun acc p -> max acc p.Frag_sched.cp_used_delta)
          0 (Frag_sched.profile s)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: chain = profile peak" name)
        (Frag_sched.used_delta s) peak)
    (fixtures ())

(* VHDL emission covers every kernel glue kind without crashing: feed it a
   kernel graph containing comparisons, muxes, gates, reductions. *)
let test_vhdl_covers_kernel_glue () =
  let b = Hls_dfg.Builder.create ~name:"allglue" in
  let a = Hls_dfg.Builder.input b "a" ~width:6 ~signed:Signed in
  let c = Hls_dfg.Builder.input b "c" ~width:6 ~signed:Signed in
  let lt = Hls_dfg.Builder.lt b ~signedness:Signed a c in
  let mx = Hls_dfg.Builder.max_ b ~width:6 ~signedness:Signed a c in
  let p = Hls_dfg.Builder.mul b ~width:12 ~signedness:Signed a c in
  let eq = Hls_dfg.Builder.node b Eq ~width:1 [ a; c ] in
  Hls_dfg.Builder.output b "lt" lt;
  Hls_dfg.Builder.output b "mx" mx;
  Hls_dfg.Builder.output b "p" p;
  Hls_dfg.Builder.output b "eq" eq;
  let kernel = Hls_kernel.Extract.run (Hls_dfg.Builder.finish b) in
  let v = Hls_speclang.Vhdl.emit kernel in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel has %s" (kind_to_string kind))
        true
        (Graph.count_kind kernel kind > 0))
    [ Not; Gate; Mux; Reduce_or; Concat ];
  Alcotest.(check bool) "emits an architecture" true
    (String.length v > 500)

let suite =
  [
    Alcotest.test_case "registers cover runs" `Quick test_registers_cover_runs;
    Alcotest.test_case "netlist dff accounting" `Quick
      test_netlist_dff_accounting;
    Alcotest.test_case "netlist FA vs FU model" `Quick
      test_netlist_fa_vs_fu_model;
    Alcotest.test_case "chain = profile peak" `Quick test_chain_vs_profile;
    Alcotest.test_case "vhdl covers kernel glue" `Quick
      test_vhdl_covers_kernel_glue;
  ]
