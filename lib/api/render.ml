(* One renderer from response payloads to the CLI's human-readable text.

   The CLI prints local results through this module, and `hlsopt call`
   prints decoded wire responses through it too — so a request executed
   remotely renders byte-identically to the same request executed
   in-process, which is what lets the serve smoke test diff the two. *)

module R = Response

let buffer_with f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let pp_stats ppf (s : R.graph_stats) =
  Format.fprintf ppf
    "graph %s: %d inputs, %d outputs, %d nodes (%d operations)@." s.gs_name
    s.gs_inputs s.gs_outputs s.gs_nodes s.gs_ops;
  Format.fprintf ppf "critical path: %d delta (chained 1-bit additions)@."
    s.gs_critical

(* Mirrors Pipeline.pp_report / Datapath.pp_area over the cache's scalar
   metrics, so a report that crossed the wire prints like a local one. *)
let pp_metrics ppf (m : Hls_dse.Cache.metrics) =
  Format.fprintf ppf
    "@[<v>%s: latency %d, cycle %d delta = %.2f ns, exec %.2f ns, %d ops \
     (%d scheduled additions)@ @[<v>FU %d + registers %d + routing %d + \
     controller %d = %d gates@]@]"
    m.m_flow m.m_latency m.m_cycle_delta m.m_cycle_ns m.m_execution_ns
    m.m_op_count m.m_fragment_count m.m_fu_gates m.m_register_gates
    m.m_mux_gates m.m_controller_gates m.m_total_gates

let pp_gantt ppf latency rows =
  let name_w =
    List.fold_left (fun acc (k, _) -> max acc (String.length k)) 4 rows
  in
  Format.fprintf ppf "%-*s " name_w "op";
  for c = 1 to latency do
    Format.fprintf ppf "%2d " c
  done;
  Format.fprintf ppf "@.";
  List.iter
    (fun (k, cycles) ->
      Format.fprintf ppf "%-*s " name_w k;
      for c = 1 to latency do
        Format.fprintf ppf " %s " (if List.mem c cycles then "#" else ".")
      done;
      Format.fprintf ppf "@.")
    rows

let pp_payload ppf = function
  | R.Pong { pong_pid } -> Format.fprintf ppf "pong (pid %d)@." pong_pid
  | R.Parsed { stats; pretty } ->
      pp_stats ppf stats;
      Format.fprintf ppf "%s@." pretty
  | R.Optimized { critical; cycle; fragments; text } ->
      Format.fprintf ppf
        "-- critical path %d delta, cycle %d delta, %d fragments@." critical
        cycle fragments;
      Format.pp_print_string ppf text
  | R.Reported r ->
      pp_stats ppf r.r_stats;
      (match r.r_target with
      | None -> ()
      | Some (ns, l) ->
          Format.fprintf ppf "target %.2f ns -> latency %d@." ns l);
      Format.fprintf ppf "@.%a@.@.%a@." pp_metrics r.r_conventional
        pp_metrics r.r_optimized;
      (match r.r_equivalence with
      | None -> Format.fprintf ppf "@.equivalence check: OK@."
      | Some m -> Format.fprintf ppf "@.equivalence check FAILED: %s@." m);
      Format.fprintf ppf "cycle saved: %.1f %%@." r.r_saved_pct
  | R.Scheduled s -> (
      List.iter
        (fun (row : R.cycle_row) ->
          Format.fprintf ppf "cycle %d: %s@." row.cr_cycle
            (String.concat ", " row.cr_ops))
        s.s_rows;
      List.iter
        (fun (p : R.profile_row) ->
          Format.fprintf ppf
            "cycle %d: chain %d delta, %d fragments, %d adder bits@."
            p.pr_cycle p.pr_chain p.pr_fragments p.pr_adder_bits)
        s.s_profile;
      match s.s_flow with
      | Request.Optimized ->
          (match s.s_used_delta with
          | Some d -> Format.fprintf ppf "achieved chain: %d delta@." d
          | None -> ());
          Format.fprintf ppf "@.";
          pp_gantt ppf s.s_latency s.s_gantt
      | Request.Conventional -> (
          match s.s_cycle_delta with
          | Some d -> Format.fprintf ppf "cycle length: %d delta@." d
          | None -> ())
      | Request.Blc -> (
          match s.s_cycle_delta with
          | Some d -> Format.fprintf ppf "budget: %d delta@." d
          | None -> ()))
  | R.Explored sweep -> Format.fprintf ppf "%a" Hls_dse.Explore.pp sweep
  | R.Transformed x ->
      Format.fprintf ppf "recipe %s (verify %s)@." x.x_recipe x.x_verify;
      List.iter
        (fun (e : R.transform_entry) ->
          if e.te_fired || e.te_verdict <> None then
            Format.fprintf ppf "%s %s: %d site(s), nodes %d -> %d, depth %d \
                               -> %d%s@."
              (if not e.te_accepted then "REJECTED"
               else if e.te_fired then "applied "
               else "no-op   ")
              e.te_pass e.te_sites e.te_nodes_before e.te_nodes_after
              e.te_depth_before e.te_depth_after
              (match e.te_verdict with
              | None -> ""
              | Some v -> " [" ^ v ^ "]"))
        x.x_log;
      Format.fprintf ppf
        "nodes %d -> %d, critical %d -> %d delta, %d check%s, %d rejected@."
        x.x_before.R.gs_nodes x.x_after.R.gs_nodes x.x_before.R.gs_critical
        x.x_after.R.gs_critical x.x_checks
        (if x.x_checks = 1 then "" else "s")
        x.x_rejected;
      Format.fprintf ppf "@.%s@." x.x_pretty
  | R.Simulated s ->
      Format.fprintf ppf "inputs:@.";
      List.iter
        (fun (n, v) -> Format.fprintf ppf "  %s = %d@." n v)
        s.sim_inputs;
      Format.fprintf ppf "outputs (behavioural | gate-level over %d cycles):@."
        s.sim_latency;
      List.iter
        (fun (n, b, g) -> Format.fprintf ppf "  %s = %d | %d@." n b g)
        s.sim_outputs
  | R.Emitted { text; _ } -> Format.pp_print_string ppf text
  | R.Iterated it ->
      List.iter
        (fun (r : R.iter_round) ->
          Format.fprintf ppf
            "round %d: target %d cycles, cap %d delta, region %d node(s) \
             (%d adds) -> %s (latency %d, chain %d delta)@."
            r.ir_index r.ir_target r.ir_cap r.ir_region r.ir_region_adds
            (if r.ir_accepted then "accepted" else "rejected")
            r.ir_latency r.ir_delta)
        it.R.it_rounds;
      Format.fprintf ppf
        "latency %d -> %d cycles, chain %d -> %d delta (%s, %.1f %% saved)@."
        it.R.it_initial_latency it.R.it_final_latency it.R.it_initial_delta
        it.R.it_final_delta it.R.it_stop it.R.it_saved_pct
  | R.Stats { st_source; st_gauges } ->
      Format.fprintf ppf "stats (%s):@." st_source;
      List.iter
        (fun (k, v) -> Format.fprintf ppf "  %s = %d@." k v)
        st_gauges
  | R.Workloads rows ->
      List.iter
        (fun (w : R.workload_row) ->
          Format.fprintf ppf "%-16s %3d operations, %2d inputs  %-10s λ=%d%s@."
            w.w_name w.w_ops w.w_inputs w.w_kind w.w_latency
            (match w.w_tags with
            | [] -> ""
            | tags -> "  [" ^ String.concat ", " tags ^ "]"))
        rows
  | R.Fuzzed f ->
      List.iter
        (fun (l : R.fuzz_lane) ->
          Format.fprintf ppf
            "lane %-5s %4d cases, %d mismatch(es), %d skipped@." l.fl_lane
            l.fl_cases l.fl_mismatches l.fl_skipped;
          List.iter
            (fun (path, ops) ->
              Format.fprintf ppf "  repro %s%s@." path
                (if ops > 0 then Printf.sprintf " (%d ops)" ops else ""))
            l.fl_repros)
        f.fz_lanes;
      Format.fprintf ppf
        "seed %d: %d cases, %d mismatch(es), %d skipped, %d coverage \
         features, %.1f s@."
        f.fz_seed f.fz_cases f.fz_mismatches f.fz_skipped f.fz_coverage
        f.fz_wall_s

let to_text payload = buffer_with (fun ppf -> pp_payload ppf payload)
