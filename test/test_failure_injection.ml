(* Failure injection: the independent checkers and the cycle-accurate RTL
   simulator must detect corrupted schedules, broken windows and missing
   registers — otherwise all the "verify = Ok" assertions elsewhere prove
   nothing. *)

module List_sched = Hls_sched.List_sched
module Frag_sched = Hls_sched.Frag_sched
module Cycle_sim = Hls_rtl.Cycle_sim
module Motivational = Hls_workloads.Motivational

let frag_schedule g ~latency =
  let kernel = Hls_kernel.Extract.run g in
  let tr = Hls_fragment.Transform.run kernel ~latency in
  Frag_sched.schedule tr

let copy_frag (s : Frag_sched.t) =
  {
    s with
    Frag_sched.cycle_of = Array.copy s.Frag_sched.cycle_of;
    bit_cycle = Array.copy s.Frag_sched.bit_cycle;
    bit_slot = Array.copy s.Frag_sched.bit_slot;
  }

(* Flat index of bit [bit] of node [id] in the schedule's bit times. *)
let flat (s : Frag_sched.t) id bit =
  s.Frag_sched.net.Hls_timing.Bitnet.bit_base.(id) + bit

(* Claim every bit of node [id] settles in [cycle]. *)
let move_bits (s : Frag_sched.t) id ~cycle =
  for bit = 0 to Hls_timing.Bitnet.width s.Frag_sched.net ~id - 1 do
    s.Frag_sched.bit_cycle.(flat s id bit) <- cycle
  done

(* Find an Add node that reads another Add's bits across a cycle
   boundary. *)
let find_cross_cycle_add (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  Hls_dfg.Graph.fold_nodes
    (fun acc (n : Hls_dfg.Types.node) ->
      match acc with
      | Some _ -> acc
      | None ->
          if
            n.Hls_dfg.Types.kind = Hls_dfg.Types.Add
            && s.Frag_sched.cycle_of.(n.Hls_dfg.Types.id) > 1
          then Some n
          else None)
    None g

let test_frag_verify_catches_moved_fragment () =
  let s = copy_frag (frag_schedule (Motivational.chain3 ()) ~latency:3) in
  (* Move a cycle-2 fragment to cycle 1: its operands are not ready. *)
  (match find_cross_cycle_add s with
  | None -> Alcotest.fail "no candidate"
  | Some n ->
      let id = n.Hls_dfg.Types.id in
      s.Frag_sched.cycle_of.(id) <- 1;
      move_bits s id ~cycle:1);
  match Frag_sched.verify s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted a corrupted schedule"

let test_frag_verify_catches_slot_overflow () =
  let s = copy_frag (frag_schedule (Motivational.chain3 ()) ~latency:3) in
  (* Claim a bit settles beyond the chaining budget. *)
  let id =
    match find_cross_cycle_add s with
    | Some n -> n.Hls_dfg.Types.id
    | None -> Alcotest.fail "no candidate"
  in
  s.Frag_sched.bit_slot.(flat s id 0) <- 999;
  match Frag_sched.verify s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted an overflowing slot"

let test_frag_verify_catches_early_chain () =
  let s = copy_frag (frag_schedule (Motivational.chain3 ()) ~latency:3) in
  (* Claim a fragment's top bit settles at slot 1 even though it chains
     after its own lower bits. *)
  let id =
    match find_cross_cycle_add s with
    | Some n -> n.Hls_dfg.Types.id
    | None -> Alcotest.fail "no candidate"
  in
  let w = Hls_timing.Bitnet.width s.Frag_sched.net ~id in
  s.Frag_sched.bit_slot.(flat s id (w - 1)) <- 0;
  match Frag_sched.verify s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted an impossible settle time"

let test_cycle_sim_catches_unregistered_read () =
  (* Shrink a schedule's latency... simpler: move a producer one cycle
     later than a consumer and watch the simulator object. *)
  let s = copy_frag (frag_schedule (Motivational.chain3 ()) ~latency:3) in
  let g = Frag_sched.graph s in
  (* Find an Add produced in cycle 1 that something reads later, and
     pretend it is produced in cycle 3. *)
  let victim =
    Hls_dfg.Graph.fold_nodes
      (fun acc (n : Hls_dfg.Types.node) ->
        match acc with
        | Some _ -> acc
        | None ->
            if
              n.Hls_dfg.Types.kind = Hls_dfg.Types.Add
              && s.Frag_sched.cycle_of.(n.Hls_dfg.Types.id) = 1
            then Some n.Hls_dfg.Types.id
            else None)
      None g
  in
  (match victim with
  | None -> Alcotest.fail "no victim"
  | Some id ->
      s.Frag_sched.cycle_of.(id) <- 3;
      move_bits s id ~cycle:3);
  let inputs =
    List.map
      (fun (p : Hls_dfg.Types.port) ->
        (p.Hls_dfg.Types.port_name,
         Hls_bitvec.of_int ~width:p.Hls_dfg.Types.port_width 1234))
      g.Hls_dfg.Graph.inputs
  in
  match Cycle_sim.run_fragment s ~inputs with
  | _ -> Alcotest.fail "simulator accepted a read-before-write"
  | exception Cycle_sim.Violation _ -> ()

let test_list_verify_catches_backward_edge () =
  let g = Motivational.fig3 () in
  let t = List_sched.schedule g ~latency:3 in
  let t =
    { t with List_sched.cycle_of = Array.copy t.List_sched.cycle_of }
  in
  (* Force a producer after its consumer. *)
  let producer =
    Hls_dfg.Graph.fold_nodes
      (fun acc (n : Hls_dfg.Types.node) ->
        if acc = None && Hls_dfg.Graph.consumers g n.Hls_dfg.Types.id <> []
        then Some n.Hls_dfg.Types.id
        else acc)
      None g
  in
  (match producer with
  | None -> Alcotest.fail "no producer"
  | Some id -> t.List_sched.cycle_of.(id) <- 3);
  let consumer_at_1 =
    Hls_dfg.Graph.fold_nodes
      (fun acc (n : Hls_dfg.Types.node) ->
        if
          acc = None
          && List.exists
               (fun (o : Hls_dfg.Types.operand) ->
                 o.Hls_dfg.Types.src = Hls_dfg.Types.Node (Option.get producer))
               n.Hls_dfg.Types.operands
        then Some n.Hls_dfg.Types.id
        else acc)
      None g
  in
  (match consumer_at_1 with
  | None -> Alcotest.fail "no consumer"
  | Some id -> t.List_sched.cycle_of.(id) <- 1);
  match List_sched.verify t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted a backward edge"

let test_sim_missing_register_detected_via_stored_runs () =
  (* The cycle simulator checks every cross-cycle read against the stored
     runs derived from the *actual* placement; a tampered placement where a
     value silently "skips" registration must be caught (covered above),
     and a correct placement must have at least one stored run. *)
  let s = frag_schedule (Motivational.chain3 ()) ~latency:3 in
  Alcotest.(check bool) "stored runs exist" true
    (Hls_alloc.Bind_frag.stored_runs s <> [])

let test_netlist_rejects_unregistered_schedule () =
  (* The netlist elaborator, like the cycle simulator, must refuse a
     placement whose cross-cycle value was never registered. *)
  let s = copy_frag (frag_schedule (Motivational.chain3 ()) ~latency:3) in
  (match find_cross_cycle_add s with
  | None -> Alcotest.fail "no candidate"
  | Some n ->
      (* Claim a cycle-2 fragment runs in cycle 3: its consumers in cycle 2
         now read the future. *)
      let id = n.Hls_dfg.Types.id in
      s.Frag_sched.cycle_of.(id) <- 3;
      move_bits s id ~cycle:3);
  match Hls_rtl.Elaborate_netlist.elaborate s with
  | _ -> Alcotest.fail "elaborator accepted a time-travelling schedule"
  | exception Hls_rtl.Elaborate_netlist.Error _ -> ()

let suite =
  [
    Alcotest.test_case "frag verify: moved fragment" `Quick
      test_frag_verify_catches_moved_fragment;
    Alcotest.test_case "frag verify: slot overflow" `Quick
      test_frag_verify_catches_slot_overflow;
    Alcotest.test_case "frag verify: early chain" `Quick
      test_frag_verify_catches_early_chain;
    Alcotest.test_case "cycle sim: read-before-write" `Quick
      test_cycle_sim_catches_unregistered_read;
    Alcotest.test_case "list verify: backward edge" `Quick
      test_list_verify_catches_backward_edge;
    Alcotest.test_case "stored runs exist" `Quick
      test_sim_missing_register_detected_via_stored_runs;
    Alcotest.test_case "netlist rejects bad schedule" `Quick
      test_netlist_rejects_unregistered_schedule;
  ]
