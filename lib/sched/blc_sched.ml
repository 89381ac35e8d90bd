(** Bit-level chaining (BLC) baseline scheduler [Park & Choi, ref. 3 of the
    paper].

    Operations stay atomic — every bit of an operation is computed in the
    operation's single assigned cycle — but *within* a cycle the carry
    ripple of data-dependent operations overlaps at the bit level (bit i of
    a consumer starts as soon as bit i of its producer settles), so a chain
    of three 16-bit additions costs 18 δ rather than 48 δ (Fig. 1 d/e).

    [schedule] finds the minimal per-cycle budget (in δ) that fits the
    requested latency under ASAP placement.  This is the strongest
    conventional competitor the paper compares against: fastest cycles, but
    chained operations cannot share functional units, so area is maximal
    (Table I, column "Fig. 1 d"). *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph

type t = {
  graph : Graph.t;
  latency : int;
  cycle_delta : int;
  cycle_of : int array;
  bit_slot : int array array;
      (** per node, per bit: settle slot (1-based δ within its cycle; 0 =
          stable at cycle start) *)
}

exception Infeasible of string

(* ASAP placement under per-cycle budget [c]: each node lands in the
   earliest cycle where all operand bits are available and its own ripple
   fits.  Runs on a prebuilt net so the [min_budget] binary search pays
   for the dependency model once, not once per probed budget.  Bit times
   live in two flat [bit_base]-indexed arrays, so a dependency's cycle and
   slot are one load each; a candidate cycle writes its node's bits in
   place (nothing reads them but the node's own carry chain until it is
   placed).  Returns the per-node cycles and the flat settle slots. *)
let asap_net (net : Hls_timing.Bitnet.t) ~budget:c =
  let module Bitnet = Hls_timing.Bitnet in
  let graph = net.Bitnet.graph in
  let bit_base = net.Bitnet.bit_base
  and dep_off = net.Bitnet.dep_off
  and deps = net.Bitnet.deps
  and cost = net.Bitnet.cost in
  let cycle_of = Array.make (Graph.node_count graph) 1 in
  let bit_cycle = Array.make (Bitnet.total_bits net) 1 in
  let bit_slot = Array.make (Bitnet.total_bits net) 0 in
  Graph.iter_nodes
    (fun (n : node) ->
      (* The node's cycle must not precede any producer's cycle. *)
      let min_cycle =
        List.fold_left
          (fun acc (o : operand) ->
            match o.src with
            | Input _ | Const _ -> acc
            | Node id -> Int.max acc cycle_of.(id))
          1 n.operands
      in
      (* Try cycles from min_cycle on; in a later cycle all producers are
         registered, so two attempts suffice. *)
      let try_cycle cycle =
        let ok = ref true in
        for b = bit_base.(n.id) to bit_base.(n.id + 1) - 1 do
          let ready = ref 0 in
          for k = dep_off.(b) to dep_off.(b + 1) - 1 do
            let d = deps.(k) in
            let dc = bit_cycle.(d) in
            if dc > cycle then ok := false
            else if dc = cycle && bit_slot.(d) > !ready then
              ready := bit_slot.(d)
          done;
          bit_cycle.(b) <- cycle;
          bit_slot.(b) <- !ready + cost.(b);
          if bit_slot.(b) > c then ok := false
        done;
        !ok
      in
      let rec settle cycle =
        if try_cycle cycle then cycle_of.(n.id) <- cycle
        else if cycle > min_cycle then
          (* All producers registered and the op still overflows: the
             budget is below the op's own ripple. *)
          raise
            (Infeasible
               (Printf.sprintf "node %d does not fit a %d-delta cycle" n.id
                  c))
        else settle (cycle + 1)
      in
      settle min_cycle)
    graph;
  (cycle_of, bit_slot)

let latency_of cycle_of = Array.fold_left max 1 cycle_of

let min_budget_net net ~latency =
  let critical =
    Hls_timing.Arrival.critical_delta (Hls_timing.Arrival.of_net net)
  in
  let lo = ref 1 and hi = ref (max 1 critical) in
  let feasible c =
    match asap_net net ~budget:c with
    | cycle_of, _ -> latency_of cycle_of <= latency
    | exception Infeasible _ -> false
  in
  if not (feasible !hi) then
    raise (Infeasible "graph cannot be scheduled at its critical path");
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if feasible mid then hi := mid else lo := mid + 1
  done;
  !lo

(** Minimal per-cycle budget scheduling in [latency] cycles. *)
let min_budget graph ~latency =
  min_budget_net (Hls_timing.Bitnet.build graph) ~latency

let schedule ?budget graph ~latency =
  if latency < 1 then invalid_arg "Blc_sched.schedule: latency must be >= 1";
  let net = Hls_timing.Bitnet.build graph in
  let c =
    match budget with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Blc_sched.schedule: budget must be >= 1"
    | None -> min_budget_net net ~latency
  in
  let cycle_of, flat_slot = asap_net net ~budget:c in
  if latency_of cycle_of > latency then
    raise
      (Infeasible
         (Printf.sprintf "budget %d needs %d cycles, latency is %d" c
            (latency_of cycle_of) latency));
  let bit_base = net.Hls_timing.Bitnet.bit_base in
  let bit_slot =
    Array.init (Graph.node_count graph) (fun id ->
        Array.sub flat_slot bit_base.(id) (bit_base.(id + 1) - bit_base.(id)))
  in
  { graph; latency; cycle_delta = c; cycle_of; bit_slot }

(** Longest used chain over all cycles. *)
let used_delta t =
  Array.fold_left
    (fun acc slots -> Array.fold_left max acc slots)
    0 t.bit_slot

(** Independent checker: every node's bits settle within its cycle's
    budget, in its single assigned cycle, after all their dependencies. *)
let verify t =
  let errs = ref [] in
  let fail fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  Graph.iter_nodes
    (fun (n : node) ->
      let cy = t.cycle_of.(n.id) in
      if cy < 1 || cy > t.latency then fail "node %d outside latency" n.id;
      Array.iteri
        (fun pos slot ->
          if slot > t.cycle_delta then
            fail "node %d bit %d overflows the budget" n.id pos;
          let cost, deps = Hls_timing.Bitdep.bit_deps t.graph n pos in
          List.iter
            (fun d ->
              let dc, ds =
                match d with
                | Hls_timing.Bitdep.Self j -> (cy, t.bit_slot.(n.id).(j))
                | Hls_timing.Bitdep.Bit (Input _, _)
                | Hls_timing.Bitdep.Bit (Const _, _) -> (0, 0)
                | Hls_timing.Bitdep.Bit (Node id, i) ->
                    (t.cycle_of.(id), t.bit_slot.(id).(i))
              in
              if dc > cy then fail "node %d reads a later cycle" n.id
              else if dc = cy && ds > slot - cost then
                fail "node %d bit %d chains too early" n.id pos)
            deps)
        t.bit_slot.(n.id))
    t.graph;
  match !errs with [] -> Ok () | e -> Error (String.concat "; " e)
