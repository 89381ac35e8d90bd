(** Conventional scheduler for transformed (fragmented) specifications
    (paper §3.3 / Fig. 3 g).

    The nodes of a transformed graph are addition fragments — each carrying
    an (ASAP, ALAP) cycle window — plus glue.  The scheduler walks the
    graph in topological order and places every fragment in the
    usage-lightest feasible cycle of its window, so fragments of one
    original operation may land in several, possibly *unconsecutive*,
    cycles (the paper's operation A executes in cycles 1 and 3), and a
    result bit is consumed in the very cycle it is produced.

    Feasibility of a candidate cycle is checked bit by bit: every operand
    bit must be registered (produced in an earlier cycle) or already
    settled in the same cycle, the fragment's own ripple must fit the
    chaining budget, and every bit must settle no later than its global
    deadline — the last condition guarantees that all still-unplaced
    successors keep a feasible (ALAP) placement, so the greedy pass never
    paints itself into a corner.

    The per-candidate-cycle feasibility probe is the innermost loop of the
    whole flow, so it runs on the transformed graph's own
    {!Hls_timing.Bitnet} (flat deps, built with the graph by
    {!Hls_fragment.Transform.apply}); the net is kept in the result for
    the binder's costly-bit and lifetime queries.  Bit times live in two
    flat [int] arrays in the net's layout, and a candidate cycle writes
    its bit times there in place, so probing a cycle allocates nothing.

    Glue is not scheduled: each glue *bit* simply inherits the time of the
    bits it forwards. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Transform = Hls_fragment.Transform
module Bitnet = Hls_timing.Bitnet

type bit_time = { bt_cycle : int; bt_slot : int }
(** When a bit settles: δ slot [bt_slot] (1-based) of cycle [bt_cycle];
    slot 0 means "stable at cycle start". *)

type t = {
  transformed : Transform.t;
  latency : int;
  n_bits : int;
  cycle_of : int array;  (** cycle of each Add node; 0 for glue *)
  bit_cycle : int array;
      (** per flat bit ([net.bit_base.(id) + bit]): settle cycle *)
  bit_slot : int array;  (** per flat bit: settle δ slot *)
  net : Bitnet.t;  (** dependency net of the transformed graph *)
}

exception Infeasible of string

let graph t = t.transformed.Transform.graph

let bit_time t id bit =
  let b = t.net.Bitnet.bit_base.(id) + bit in
  { bt_cycle = t.bit_cycle.(b); bt_slot = t.bit_slot.(b) }

let window_caps (tr : Transform.t) ~latency ~n_bits g =
  let caps =
    Array.init (Graph.node_count g) (fun id ->
        match (Graph.node g id).kind with
        | Add -> snd tr.Transform.windows.(id) * n_bits
        | _ -> latency * n_bits)
  in
  fun id _bit -> caps.(id)

let infeasible (n : node) w_asap w_alap =
  Infeasible
    (Printf.sprintf "fragment %d (%s) has no feasible cycle in [%d,%d]" n.id
       n.label w_asap w_alap)

let schedule ?(balance = true) ?chain_cap (tr : Transform.t) =
  let g = tr.Transform.graph in
  let plan = tr.Transform.plan in
  let latency = plan.Hls_fragment.Mobility.latency in
  let n_bits = plan.Hls_fragment.Mobility.n_bits in
  (* The chaining cap may only tighten the budget: cycles stay [n_bits] δ
     apart in absolute-slot space, so the deadline analysis (a necessity
     bound under the full budget) remains sound under the cap. *)
  let cap =
    match chain_cap with
    | None -> n_bits
    | Some c when c >= 1 -> min c n_bits
    | Some c -> raise (Infeasible (Printf.sprintf "chain cap %d below 1 δ" c))
  in
  let n_nodes = Graph.node_count g in
  let net = tr.Transform.net in
  let bit_base = net.Bitnet.bit_base
  and dep_off = net.Bitnet.dep_off
  and deps = net.Bitnet.deps
  and cost = net.Bitnet.cost in
  let total_bits = Bitnet.total_bits net in
  let cycle_of = Array.make n_nodes 0 in
  (* Bits not yet placed read as {cycle 0, slot 0}, the folds' base case
     (Input/Const bits are not in the net at all). *)
  let bit_cycle = Array.make total_bits 0 in
  let bit_slot = Array.make total_bits 0 in
  (* Deadlines honour each fragment's window: a bit of a fragment whose
     window ends at cycle k must settle by slot k·n_bits even if the pure
     dataflow ALAP would allow later — this is what makes window-tightening
     policies (coalescing) safe for the greedy scheduler. *)
  let deadline =
    Hls_timing.Deadline.of_net net
      ~total_slots:(latency * n_bits)
      ~caps:(window_caps tr ~latency ~n_bits g)
  in
  let usage = Array.make latency 0 in
  (* Slots of the best candidate so far, reused by every fragment. *)
  let max_width = ref 1 in
  for id = 0 to n_nodes - 1 do
    max_width := Int.max !max_width (Graph.node g id).width
  done;
  let max_width = !max_width in
  let best_slot = Array.make max_width 0 in
  (* Try Add node [n] in [cycle]: writes the candidate's bit times in
     place (nothing reads [n]'s bits but its own carry chain until it is
     placed) and says whether every bit has its operands, fits the cap and
     meets its deadline.  Stops at the first failing bit. *)
  let try_add (n : node) ~cycle =
    let base = bit_base.(n.id) in
    let cycle_start = (cycle - 1) * n_bits in
    let ok = ref true and pos = ref 0 in
    while !ok && !pos < n.width do
      let b = base + !pos in
      let ready = ref 0 in
      for k = dep_off.(b) to dep_off.(b + 1) - 1 do
        let d = deps.(k) in
        let c = bit_cycle.(d) in
        if c > cycle then ok := false
        else if c = cycle && bit_slot.(d) > !ready then ready := bit_slot.(d)
      done;
      let slot = !ready + cost.(b) in
      bit_cycle.(b) <- cycle;
      bit_slot.(b) <- slot;
      if
        slot > cap
        || cycle_start + slot
           > Hls_timing.Deadline.slot deadline ~id:n.id ~bit:!pos
      then ok := false;
      incr pos
    done;
    !ok
  in
  (* Glue: each bit settles exactly when its latest dependency does. *)
  let place_glue (n : node) =
    for b = bit_base.(n.id) to bit_base.(n.id + 1) - 1 do
      let lc = ref 0 and ls = ref 0 in
      for k = dep_off.(b) to dep_off.(b + 1) - 1 do
        let d = deps.(k) in
        let c = bit_cycle.(d) and s = bit_slot.(d) in
        if c > !lc || (c = !lc && s > !ls) then begin
          lc := c;
          ls := s
        end
      done;
      bit_cycle.(b) <- !lc;
      bit_slot.(b) <- !ls
    done
  in
  Graph.iter_nodes
    (fun (n : node) ->
      match n.kind with
      | Add ->
          let w_asap, w_alap = tr.Transform.windows.(n.id) in
          (* The usage-lightest feasible cycle, earliest on ties (or the
             earliest feasible one without balancing).  A cycle no lighter
             than the incumbent cannot win, so it is not tried. *)
          let best = ref 0 and best_u = ref max_int in
          let cycle = ref w_asap in
          while !cycle <= w_alap && (balance || !best = 0) do
            let u = usage.(!cycle - 1) in
            if u < !best_u && try_add n ~cycle:!cycle then begin
              best := !cycle;
              best_u := u;
              Array.blit bit_slot bit_base.(n.id) best_slot 0 n.width
            end;
            incr cycle
          done;
          if !best = 0 then raise (infeasible n w_asap w_alap);
          let base = bit_base.(n.id) in
          Array.fill bit_cycle base n.width !best;
          Array.blit best_slot 0 bit_slot base n.width;
          cycle_of.(n.id) <- !best;
          (* δ-costly bits claim adder area; pure carry columns do not. *)
          usage.(!best - 1) <- !best_u + Bitnet.costly_width net ~id:n.id
      | _ -> place_glue n)
    g;
  { transformed = tr; latency; n_bits; cycle_of; bit_cycle; bit_slot; net }

(** Longest chain actually used in any cycle — the achieved cycle length
    in δ (at most the budget). *)
let used_delta t =
  let m = ref 0 in
  for b = 0 to Array.length t.bit_slot - 1 do
    if t.bit_slot.(b) > !m then m := t.bit_slot.(b)
  done;
  !m

(** Add nodes placed in [cycle]. *)
let adds_in_cycle t cycle =
  Graph.fold_nodes
    (fun acc (n : node) ->
      if n.kind = Add && t.cycle_of.(n.id) = cycle then n :: acc else acc)
    [] (graph t)
  |> List.rev

type cycle_profile = {
  cp_cycle : int;
  cp_used_delta : int;  (** longest chain settled in this cycle *)
  cp_fragments : int;
  cp_adder_bits : int;  (** δ-costly bits executed in this cycle *)
}

(** Per-cycle usage report: chain occupation, fragment population and adder
    pressure — what a designer reads to see where the schedule is tight. *)
let profile t =
  List.map
    (fun cycle ->
      let fragments = adds_in_cycle t cycle in
      let used =
        List.fold_left
          (fun acc (n : node) ->
            List.fold_left
              (fun acc bit ->
                let bt = bit_time t n.id bit in
                if bt.bt_cycle = cycle then max acc bt.bt_slot else acc)
              acc
              (Hls_util.List_ext.range 0 n.width))
          0 fragments
      in
      let bits =
        Hls_util.List_ext.sum_by
          (fun (n : node) -> Bitnet.costly_width t.net ~id:n.id)
          fragments
      in
      {
        cp_cycle = cycle;
        cp_used_delta = used;
        cp_fragments = List.length fragments;
        cp_adder_bits = bits;
      })
    (Hls_util.List_ext.range 1 (t.latency + 1))

(** Independent checker of a fragment schedule.  Deliberately evaluates
    {!Hls_timing.Bitdep.bit_deps} directly so a net-based schedule is
    cross-checked against the reference dependency model. *)
let verify t =
  let g = graph t in
  let errs = ref [] in
  let fail fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* The flat bit times must cover exactly the graph's bits before any
     of them can be read. *)
  let layout_ok =
    Array.length t.net.Bitnet.bit_base = Graph.node_count g + 1
    && Array.length t.bit_cycle = Bitnet.total_bits t.net
    && Array.length t.bit_slot = Bitnet.total_bits t.net
  in
  if layout_ok then
    Graph.iter_nodes
      (fun (n : node) ->
        if Bitnet.width t.net ~id:n.id <> n.width then
          fail "node %d missing times" n.id)
      g
  else fail "bit times do not cover the graph";
  if !errs = [] then
    Graph.iter_nodes
      (fun (n : node) ->
        let times = Array.init n.width (bit_time t n.id) in
        (if n.kind = Add then begin
           let cy = t.cycle_of.(n.id) in
           let w_asap, w_alap = t.transformed.Transform.windows.(n.id) in
           if cy < w_asap || cy > w_alap then
             fail "node %d placed at %d outside window [%d,%d]" n.id cy w_asap
               w_alap
         end);
        Array.iteri
          (fun pos bt ->
            if bt.bt_slot > t.n_bits then
              fail "node %d bit %d overflows the cycle" n.id pos;
            let cost, deps = Hls_timing.Bitdep.bit_deps g n pos in
            List.iter
              (fun d ->
                let dt =
                  match d with
                  | Hls_timing.Bitdep.Self j -> times.(j)
                  | Hls_timing.Bitdep.Bit (Input _, _)
                  | Hls_timing.Bitdep.Bit (Const _, _) ->
                      { bt_cycle = 0; bt_slot = 0 }
                  | Hls_timing.Bitdep.Bit (Node id, i) -> bit_time t id i
                in
                if dt.bt_cycle > bt.bt_cycle then
                  fail "node %d bit %d consumes a later cycle" n.id pos
                else if
                  dt.bt_cycle = bt.bt_cycle && dt.bt_slot > bt.bt_slot - cost
                then fail "node %d bit %d chains too early" n.id pos)
              deps)
          times)
      g;
  match !errs with [] -> Ok () | e -> Error (String.concat "; " e)

(** True when some original operation executes in non-consecutive cycles —
    the capability the paper claims unique to this method. *)
let has_unconsecutive_execution t =
  let g = graph t in
  let by_op = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun (n : node) ->
      match (n.kind, n.origin) with
      | Add, Some o ->
          let cycles =
            Option.value (Hashtbl.find_opt by_op o.orig_op) ~default:[]
          in
          Hashtbl.replace by_op o.orig_op (t.cycle_of.(n.id) :: cycles)
      | _ -> ())
    g;
  Hashtbl.fold
    (fun _ cycles acc ->
      acc
      ||
      let sorted = List.sort_uniq compare cycles in
      match sorted with
      | [] | [ _ ] -> false
      | first :: rest ->
          let rec gaps prev = function
            | [] -> false
            | x :: tl -> x > prev + 1 || gaps x tl
          in
          gaps first rest)
    by_op false
