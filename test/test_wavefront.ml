(* Flat timing kernels: bit-identity of the id-ordered arrival/deadline
   sweeps against the per-query references, the region count of
   lane-structured graphs, the early-exit feasibility check, and the
   word-packed index sets underneath them. *)

open Hls_dfg.Types
module B = Hls_dfg.Builder
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module P = Hls_core.Pipeline
module Rdfg = Hls_workloads.Random_dfg
module Bitnet = Hls_timing.Bitnet
module Arrival = Hls_timing.Arrival
module Deadline = Hls_timing.Deadline
module Ws = Hls_bitvec.Wordset
module Timing_oracle = Hls_oracle.Timing_oracle

let kernel_of_seed ?(lanes = 1) ?(ops = 24) seed =
  let profile =
    { Rdfg.default_profile with ops; mul_ratio = 8; cmp_ratio = 7; lanes }
  in
  P.prepare_kernel (Rdfg.generate ~profile ~seed ())

let for_all_bits g f =
  let ok = ref true in
  for id = 0 to Graph.node_count g - 1 do
    for bit = 0 to (Graph.node g id).width - 1 do
      if not (f ~id ~bit) then ok := false
    done
  done;
  !ok

let deadlines_equal g a b =
  for_all_bits g (fun ~id ~bit ->
      Deadline.slot a ~id ~bit = Deadline.slot b ~id ~bit)

(* The flat kernels against the per-query references kept in
   [Hls_oracle.Timing_oracle]. *)
let arrival_matches_reference g a =
  let r = Timing_oracle.arrival g in
  for_all_bits g (fun ~id ~bit ->
      Arrival.slot a ~id ~bit = Timing_oracle.slot r ~id ~bit)

let deadline_matches_reference ?caps g d ~total_slots =
  let r = Timing_oracle.deadline ?caps g ~total_slots in
  for_all_bits g (fun ~id ~bit ->
      Deadline.slot d ~id ~bit = Timing_oracle.slot r ~id ~bit)

(* A deterministic non-uniform cap, to exercise the ?caps init path. *)
let caps_of_seed seed total = fun id bit -> total - ((id + bit + seed) mod 7)

let total_of net =
  Arrival.critical_delta (Arrival.of_net net) + 5

(* --- bit-identity against the per-query references --- *)

let prop_arrival_identity =
  QCheck.Test.make ~name:"arrival wavefront == reference" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = kernel_of_seed seed in
      let net = Bitnet.build g in
      arrival_matches_reference g (Arrival.of_net net))

let prop_deadline_identity =
  QCheck.Test.make ~name:"deadline wavefront == reference (with caps)"
    ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = kernel_of_seed seed in
      let net = Bitnet.build g in
      let total = total_of net in
      let plain =
        deadline_matches_reference g
          (Deadline.of_net net ~total_slots:total)
          ~total_slots:total
      in
      let caps = caps_of_seed seed total in
      let capped =
        deadline_matches_reference ~caps g
          (Deadline.of_net ~caps net ~total_slots:total)
          ~total_slots:total
      in
      plain && capped)

(* --- early-exit feasibility check --- *)

let prop_check_matches_feasible =
  QCheck.Test.make ~name:"of_net_check Ok <=> feasible, witness violates"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 8))
    (fun (seed, tighten) ->
      let g = kernel_of_seed seed in
      let net = Bitnet.build g in
      let critical = Arrival.critical_delta (Arrival.of_net net) in
      (* Budgets straddling the critical path: >= critical is feasible,
         anything less must be caught. *)
      let total = max 0 (critical + 2 - tighten) in
      let arr = Arrival.of_net net in
      let dl = Deadline.of_net net ~total_slots:total in
      match Deadline.of_net_check net ~total_slots:total ~arrival:arr with
      | Ok dl' ->
          Deadline.feasible arr dl && deadlines_equal g dl dl'
      | Error (id, bit) ->
          (not (Deadline.feasible arr dl))
          && Deadline.slot dl ~id ~bit < Arrival.slot arr ~id ~bit)

(* The error names a violated bit, and no node with a larger id violates
   (the descending sweep checks each node as soon as it is final); [Ok]
   exactly when the budget is feasible.  Budgets range from well below
   the critical path to above it. *)
let prop_check_first_violation =
  QCheck.Test.make ~name:"of_net_check names the largest violating id"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 12))
    (fun (seed, tighten) ->
      let g = kernel_of_seed ~ops:(8 + (seed mod 24)) seed in
      let net = Bitnet.build g in
      let arr = Arrival.of_net net in
      let total = max 0 (Arrival.critical_delta arr + 3 - tighten) in
      let dl = Deadline.of_net net ~total_slots:total in
      let violates id =
        let v = ref false in
        for bit = 0 to (Graph.node g id).width - 1 do
          if Deadline.slot dl ~id ~bit < Arrival.slot arr ~id ~bit then
            v := true
        done;
        !v
      in
      match Deadline.of_net_check net ~total_slots:total ~arrival:arr with
      | Ok _ -> Deadline.feasible arr dl
      | Error (id, bit) ->
          (not (Deadline.feasible arr dl))
          && Deadline.slot dl ~id ~bit < Arrival.slot arr ~id ~bit
          && List.for_all
               (fun j -> not (violates j))
               (List.init (Graph.node_count g - id - 1) (fun k -> id + 1 + k)))

(* --- degenerate shapes --- *)

let test_single_level () =
  (* Independent adds of fresh inputs: one region per add. *)
  let n = 6 in
  let b = B.create ~name:"flat" in
  for k = 1 to n do
    let x = B.input b (Printf.sprintf "x%d" k) ~width:4 in
    let y = B.input b (Printf.sprintf "y%d" k) ~width:4 in
    B.output b (Printf.sprintf "o%d" k) (B.add b ~width:4 x y)
  done;
  let g = P.prepare_kernel (B.finish b) in
  let net = Bitnet.build g in
  Alcotest.(check int) "one region per add" n (Bitnet.n_regions net);
  Alcotest.(check bool) "identity on a single level" true
    (arrival_matches_reference g (Arrival.of_net net))

let test_all_const () =
  (* Constant-only operands: no dependencies at all. *)
  let b = B.create ~name:"consts" in
  let s = B.add b ~width:2 Operand.one Operand.one in
  let t = B.add b ~width:2 Operand.one Operand.zero_bit in
  B.output b "s" s;
  B.output b "t" t;
  let g = P.prepare_kernel (B.finish b) in
  let net = Bitnet.build g in
  let total = total_of net in
  Alcotest.(check bool) "arrival identity" true
    (arrival_matches_reference g (Arrival.of_net net));
  Alcotest.(check bool) "deadline identity" true
    (deadline_matches_reference g
       (Deadline.of_net net ~total_slots:total)
       ~total_slots:total)

let test_width1_chain () =
  (* A width-1 adder chain: every node feeds the next, and the sweeps
     must still be identical. *)
  let depth = 17 in
  let b = B.create ~name:"chain1" in
  let x = B.input b "x" ~width:1 in
  let v = ref x in
  for k = 1 to depth do
    v := B.add b ~width:1 ~label:(Printf.sprintf "c%d" k) !v !v
  done;
  B.output b "o" !v;
  let g = P.prepare_kernel (B.finish b) in
  let net = Bitnet.build g in
  Alcotest.(check int) "one region" 1 (Bitnet.n_regions net);
  Alcotest.(check bool) "arrival identity" true
    (arrival_matches_reference g (Arrival.of_net net));
  let total = total_of net in
  Alcotest.(check bool) "deadline identity" true
    (deadline_matches_reference g
       (Deadline.of_net net ~total_slots:total)
       ~total_slots:total)

let test_registry_regions () =
  (* The multi-lane stress workloads have at least one region per
     lane. *)
  let regions w =
    match Hls_workloads.Catalog.find_graph w with
    | Some g -> Bitnet.n_regions (Bitnet.build (P.prepare_kernel g))
    | None -> Alcotest.failf "%s missing from the catalog" w
  in
  Alcotest.(check bool) "random240 multi-region" true (regions "random240" >= 3);
  Alcotest.(check bool) "random480 multi-region" true (regions "random480" >= 6)

(* --- word-packed index sets --- *)

let prop_wordset_model =
  QCheck.Test.make ~name:"Wordset matches the naive set model" ~count:150
    QCheck.(pair (int_range 1 200) (int_range 0 1000))
    (fun (len, seed) ->
      let prng = Hls_util.Prng.create ~seed in
      let s = Ws.create len in
      let m = Array.make len false in
      let ok = ref true in
      for _ = 1 to 250 do
        let i = Hls_util.Prng.int prng len in
        match Hls_util.Prng.int prng 3 with
        | 0 ->
            Ws.add s i;
            m.(i) <- true
        | 1 ->
            Ws.remove s i;
            m.(i) <- false
        | _ -> if Ws.mem s i <> m.(i) then ok := false
      done;
      let model_count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m
      in
      ok := !ok && Ws.count s = model_count;
      ok := !ok && Ws.is_empty s = (model_count = 0);
      let model_next p from =
        let rec go i = if i >= len then -1 else if p m.(i) then i else go (i + 1) in
        go from
      in
      for i = 0 to len - 1 do
        ok := !ok && Ws.next_set s i = model_next (fun b -> b) i;
        ok := !ok && Ws.next_unset s i = model_next not i
      done;
      ok :=
        !ok
        && Ws.to_list s
           = List.filter (fun i -> m.(i)) (List.init len (fun i -> i));
      !ok)

let test_wordset_edges () =
  let s = Ws.create 63 in
  Ws.fill s;
  Alcotest.(check int) "fill counts len" 63 (Ws.count s);
  Alcotest.(check int) "no phantom past len" (-1) (Ws.next_unset s 0);
  Ws.clear s;
  Alcotest.(check bool) "clear empties" true (Ws.is_empty s);
  Alcotest.(check int) "next_set on empty" (-1) (Ws.next_set s 0);
  let s = Ws.create 64 in
  (* crosses the first word boundary *)
  Ws.add s 62;
  Ws.add s 63;
  Alcotest.(check int) "next_set across words" 62 (Ws.next_set s 0);
  Alcotest.(check int) "next_set from boundary" 63 (Ws.next_set s 63);
  Ws.remove s 62;
  Alcotest.(check int) "next_set skips cleared" 63 (Ws.next_set s 0);
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Wordset.mem: index 64 out of [0, 64)") (fun () ->
      ignore (Ws.mem s 64))

let suite =
  [
    Alcotest.test_case "single level" `Quick test_single_level;
    Alcotest.test_case "all-const inputs" `Quick test_all_const;
    Alcotest.test_case "width-1 chain" `Quick test_width1_chain;
    Alcotest.test_case "registry lanes give regions" `Quick
      test_registry_regions;
    Alcotest.test_case "wordset edges" `Quick test_wordset_edges;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_arrival_identity;
        prop_deadline_identity;
        prop_check_matches_feasible;
        prop_check_first_violation;
        prop_wordset_model;
      ]
