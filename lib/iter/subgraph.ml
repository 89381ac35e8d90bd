(** Critical-subgraph extraction from a fragment schedule.

    The iteration driver tries to re-run a schedule in fewer cycles at
    the same clock tier (same [n_bits] chaining budget).  The part of the
    design that stands in the way of a [target]-cycle schedule is exactly
    the set of bits whose *current* settle time misses their deadline
    under the reduced total budget [target * n_bits], together with
    everything feeding them combinationally in the same cycle along
    *tight* chains (a bit forced earlier drags its whole chain with it).
    This module walks the schedule's prebuilt {!Hls_timing.Bitnet}
    backwards along tight dependencies to collect that region and one
    witness chain. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Bitnet = Hls_timing.Bitnet
module Frag_sched = Hls_sched.Frag_sched

type t = {
  schedule : Frag_sched.t;
  target : int;  (** the reduced latency the extraction aimed at *)
  deadline : Hls_timing.Deadline.t;
      (** the schedule's net under the reduced budget [target * n_bits] *)
  member : bool array;  (** per node id: inside the critical region *)
  nodes : node_id list;  (** region members, ascending *)
  region_adds : int;  (** Add fragments inside the region *)
  witness : (node_id * int) list;
      (** one maximal-violation chain, producer first: consecutive
          (node, bit) pairs each settling exactly its δ cost after its
          predecessor, ending at the bit that misses its reduced deadline
          the hardest *)
}

let mem t id = id >= 0 && id < Array.length t.member && t.member.(id)
let size t = List.length t.nodes

(* Tight predecessors of flat bit [b] in schedule [s]: dependencies that
   settle in the same cycle exactly [cost] before the bit — the chains
   its settle slot is measured along.  [f] receives the predecessor's
   flat index. *)
let iter_tight (s : Frag_sched.t) b f =
  let net = s.Frag_sched.net in
  let slot = s.Frag_sched.bit_slot.(b) in
  if slot > 0 then begin
    let want = slot - net.Bitnet.cost.(b) in
    let cycle = s.Frag_sched.bit_cycle.(b) in
    for k = net.Bitnet.dep_off.(b) to net.Bitnet.dep_off.(b + 1) - 1 do
      let d = net.Bitnet.deps.(k) in
      if s.Frag_sched.bit_cycle.(d) = cycle && s.Frag_sched.bit_slot.(d) = want
      then f d
    done
  end

(* Reduced-budget slack of bit [bit] of node [id]: its deadline minus its
   current settle slot, both absolute. *)
let slack (s : Frag_sched.t) deadline ~id ~bit =
  let b = s.Frag_sched.net.Bitnet.bit_base.(id) + bit in
  Hls_timing.Deadline.slot deadline ~id ~bit
  - (((s.Frag_sched.bit_cycle.(b) - 1) * s.Frag_sched.n_bits)
    + s.Frag_sched.bit_slot.(b))

let extract (s : Frag_sched.t) ~target =
  if target < 1 then invalid_arg "Subgraph.extract: target < 1";
  let g = Frag_sched.graph s in
  let net = s.Frag_sched.net in
  let bit_base = net.Bitnet.bit_base in
  let n_nodes = Graph.node_count g in
  (* Deadlines under the reduced budget; the extraction is meaningful
     when the relaxation is feasible ({!infeasible_witness} = None), but
     the walk itself is total either way. *)
  let deadline =
    Hls_timing.Deadline.of_net net ~total_slots:(target * s.Frag_sched.n_bits)
  in
  let member = Array.make (max n_nodes 1) false in
  let total_bits = Bitnet.total_bits net in
  (* Seeds: bits whose current settle time misses the reduced deadline —
     they must move earlier, so their whole tight fan-in cone is in
     play.  Track the hardest violator as the witness seed.  A bit is
     marked when pushed, so the stack holds each bit at most once. *)
  let visited = Array.make (max total_bits 1) false in
  let stack = Array.make (max total_bits 1) 0 and top = ref 0 in
  let push b =
    if not visited.(b) then begin
      visited.(b) <- true;
      stack.(!top) <- b;
      incr top
    end
  in
  let witness_seed = ref (-1) in
  let worst = ref 0 in
  for id = 0 to n_nodes - 1 do
    for bit = 0 to bit_base.(id + 1) - bit_base.(id) - 1 do
      let sl = slack s deadline ~id ~bit in
      if sl < 0 then begin
        push (bit_base.(id) + bit);
        if sl < !worst then begin
          worst := sl;
          witness_seed := bit_base.(id) + bit
        end
      end
    done
  done;
  while !top > 0 do
    decr top;
    iter_tight s stack.(!top) push
  done;
  for id = 0 to n_nodes - 1 do
    let b = ref bit_base.(id) in
    while !b < bit_base.(id + 1) && not visited.(!b) do
      incr b
    done;
    if !b < bit_base.(id + 1) then member.(id) <- true
  done;
  (* One witness chain: greedily follow the first tight predecessor from
     the hardest violator down to a registered (slot-0) bit; producer
     first. *)
  let witness =
    let rec walk b acc =
      let pred = ref (-1) in
      iter_tight s b (fun d -> if !pred < 0 then pred := d);
      let id = Bitnet.node_of_slot net b in
      let acc = (id, b - bit_base.(id)) :: acc in
      if !pred < 0 then acc else walk !pred acc
    in
    if !witness_seed < 0 then [] else walk !witness_seed []
  in
  let nodes = ref [] and region_adds = ref 0 in
  for id = n_nodes - 1 downto 0 do
    if member.(id) then begin
      nodes := id :: !nodes;
      if (Graph.node g id).kind = Add then incr region_adds
    end
  done;
  {
    schedule = s;
    target;
    deadline;
    member;
    nodes = !nodes;
    region_adds = !region_adds;
    witness;
  }

(* Relaxation-level certificate that [target] cycles are hopeless at this
   clock tier: under the reduced total budget [target * n_bits] and
   *full* mobility (ignore fragment windows and placement), is some
   bit's pure-dataflow arrival already past its deadline?  [Some _]
   proves no schedule of this transformed graph fits [target] cycles, so
   iteration may stop with a certificate instead of a greedy failure. *)
let infeasible_witness t =
  let arrival = Hls_timing.Arrival.of_net t.schedule.Frag_sched.net in
  Hls_timing.Deadline.feasible_witness arrival t.deadline
