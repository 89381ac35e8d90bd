(** Critical-subgraph extraction from a fragment schedule.

    The iteration driver tries to re-run a schedule in fewer cycles at
    the same clock tier (same [n_bits] chaining budget).  The part of the
    design that stands in the way of a [target]-cycle schedule is exactly
    the set of bits whose *current* settle time misses their deadline
    under the reduced total budget [target * n_bits], together with
    everything feeding them combinationally in the same cycle along
    *tight* chains (a bit forced earlier drags its whole chain with it).
    This module walks the schedule's prebuilt {!Hls_timing.Bitnet}
    backwards along tight dependencies to collect that region, one
    witness chain and the placement map that lets untouched original
    operations be pinned when the region is re-scheduled.  The region's
    boundary and a per-bit slack histogram are computed on demand: the
    iteration loop reads neither. *)

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
  dirty_ops : string list;
      (** original operations owning some region fragment — the ops whose
          fragments must stay free when re-scheduling *)
  pin_map : (string * (int * int * int) list) list;
      (** incumbent placement of every *clean* original operation:
          op name -> [(orig_lo, orig_hi, cycle)] per Add fragment —
          the key for pinning the fragments of a re-planned graph *)
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
      let d = net.Bitnet.flat_deps.(k) in
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
  (* Dirty original ops (own a region fragment) and the incumbent
     placement of every clean op's fragments, keyed by origin. *)
  let dirty = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun (n : node) ->
      if member.(n.id) then
        match n.origin with
        | Some o -> Hashtbl.replace dirty o.orig_op ()
        | None -> ())
    g;
  let placements = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun (n : node) ->
      match (n.kind, n.origin) with
      | Add, Some o when not (Hashtbl.mem dirty o.orig_op) ->
          let prev =
            Option.value (Hashtbl.find_opt placements o.orig_op) ~default:[]
          in
          Hashtbl.replace placements o.orig_op
            ((o.orig_lo, o.orig_hi, s.Frag_sched.cycle_of.(n.id)) :: prev)
      | _ -> ())
    g;
  let dirty_ops =
    Hashtbl.fold (fun k () acc -> k :: acc) dirty [] |> List.sort compare
  in
  let pin_map =
    Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) placements []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    schedule = s;
    target;
    deadline;
    member;
    nodes = !nodes;
    region_adds = !region_adds;
    witness;
    dirty_ops;
    pin_map;
  }

(* Boundary: producers outside feeding inside ([inward]), or members
   consumed outside or driving a primary output (not [inward]). *)
let boundary t ~inward =
  let g = Frag_sched.graph t.schedule in
  let n_nodes = Graph.node_count g in
  let mark = Array.make (max n_nodes 1) false in
  Graph.iter_nodes
    (fun (n : node) ->
      List.iter
        (fun (o : operand) ->
          match o.src with
          | Node src
            when t.member.(n.id) = inward && t.member.(src) <> inward ->
              mark.(src) <- true
          | _ -> ())
        n.operands)
    g;
  if not inward then
    List.iter
      (fun id -> if Graph.output_consumers g id <> [] then mark.(id) <- true)
      t.nodes;
  List.filter (fun id -> mark.(id)) (List.init n_nodes Fun.id)

let boundary_in t = boundary t ~inward:true
let boundary_out t = boundary t ~inward:false

(* Slack histogram over δ-costly Add bits: negative buckets are the bits
   the reduced budget forces to move. *)
let slack_hist t =
  let s = t.schedule in
  let net = s.Frag_sched.net in
  let hist = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then
        for bit = 0 to n.width - 1 do
          if Bitnet.cost_of net ~id:n.id ~bit > 0 then begin
            let sl = slack s t.deadline ~id:n.id ~bit in
            Hashtbl.replace hist sl
              (1 + Option.value (Hashtbl.find_opt hist sl) ~default:0)
          end
        done)
    (Frag_sched.graph s);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Pin function for a re-planned graph [g'] (typically fragmented at the
   reduced latency, so its node ids differ from the incumbent's): an Add
   fragment of a clean original operation is pinned to the incumbent
   cycle of the fragment that produced its low bit; dirty-op fragments,
   anonymous fragments and glue stay free.  A pin landing outside a
   fragment's new window is ignored by the scheduler, so stale
   placements degrade to freedom, never to infeasibility. *)
let pin_for t g' =
  let placements = Hashtbl.create 16 in
  List.iter (fun (op, frs) -> Hashtbl.replace placements op frs) t.pin_map;
  let n = Graph.node_count g' in
  let pins = Array.make (max n 1) None in
  Graph.iter_nodes
    (fun (nd : node) ->
      match (nd.kind, nd.origin) with
      | Add, Some o -> (
          match Hashtbl.find_opt placements o.orig_op with
          | Some frs ->
              pins.(nd.id) <-
                List.find_map
                  (fun (lo, hi, cycle) ->
                    if o.orig_lo >= lo && o.orig_lo <= hi then Some cycle
                    else None)
                  frs
          | None -> ())
      | _ -> ())
    g';
  fun id -> if id >= 0 && id < n then pins.(id) else None

(* Relaxation-level certificate that [target] cycles are hopeless at this
   clock tier: under the reduced total budget [target * n_bits] and
   *full* mobility (ignore fragment windows and placement), is some
   bit's pure-dataflow arrival already past its deadline?  [Some _]
   proves no schedule of this transformed graph fits [target] cycles, so
   iteration may stop with a certificate instead of a greedy failure. *)
let infeasible_witness t =
  let arrival = Hls_timing.Arrival.of_net t.schedule.Frag_sched.net in
  Hls_timing.Deadline.feasible_witness arrival t.deadline

let pp ppf t =
  Format.fprintf ppf
    "@[<v>critical region for %d cycles: %d nodes (%d adds)@ in: %s@ out: \
     %s@ dirty ops: %s@ witness: %s@ slack:%s@]"
    t.target (size t) t.region_adds
    (String.concat "," (List.map string_of_int (boundary_in t)))
    (String.concat "," (List.map string_of_int (boundary_out t)))
    (String.concat "," t.dirty_ops)
    (String.concat "->"
       (List.map (fun (id, b) -> Printf.sprintf "n%d.%d" id b) t.witness))
    (String.concat ""
       (List.map (fun (s, n) -> Printf.sprintf " %d:%d" s n) (slack_hist t)))
