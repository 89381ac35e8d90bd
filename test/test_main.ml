let () =
  Alcotest.run "hls_fragment_repro"
    [
      ("util", Test_util.suite);
      ("bitvec", Test_bitvec.suite);
      ("techlib", Test_techlib.suite);
      ("dfg", Test_dfg.suite);
      ("sim", Test_sim.suite);
      ("timing", Test_timing.suite);
      ("kernel", Test_kernel.suite);
      ("fragment", Test_fragment.suite);
      ("sched", Test_sched.suite);
      ("alloc", Test_alloc.suite);
      ("core", Test_core.suite);
      ("speclang", Test_speclang.suite);
      ("rtl", Test_rtl.suite);
      ("ablations", Test_ablations.suite);
      ("sched_extra", Test_sched_extra.suite);
      ("failure_injection", Test_failure_injection.suite);
      ("workloads", Test_workloads.suite);
      ("netlist", Test_netlist.suite);
      ("props", Test_props.suite);
      ("opt", Test_opt.suite);
      ("xform", Test_xform.suite);
      ("consistency", Test_consistency.suite);
      ("spec_files", Test_spec_files.suite);
      ("lower_direct", Test_lower_direct.suite);
      ("dse", Test_dse.suite);
      ("dse_faults", Test_dse_faults.suite);
      ("bitnet", Test_bitnet.suite);
      ("wavefront", Test_wavefront.suite);
      ("telemetry", Test_telemetry.suite);
      ("iter", Test_iter.suite);
      ("api", Test_api.suite);
      ("loop", Test_loop.suite);
      ("router", Test_router.suite);
      ("fuzz", Test_fuzz.suite);
    ]
