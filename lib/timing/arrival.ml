(** Forward bit-level arrival analysis (the "rippling" model of Figs. 1e /
    3b).

    The arrival slot of a result bit is the number of δ units after the
    start of execution at which that bit is stable, assuming unlimited
    chaining (no cycle boundaries).  Primary inputs and constants are stable
    at slot 0.  With a per-cycle chaining budget of [n_bits] δ, the earliest
    cycle a bit can be produced in is simply [ceil(slot / n_bits)]:
    registering a value at a cycle boundary never makes it available earlier
    than its combinational arrival, so the unconstrained arrival time *is*
    the bit-level ASAP schedule.

    Slots live in one flat [bit_base]-indexed array sharing the net's
    layout, and the kernel sweeps node ids in ascending order: ids are
    topological, so every node reads only slots of smaller ids (settled
    already) or of its own carry chain. *)


type t = {
  bit_base : int array;
      (** length [node_count + 1]: flat index of bit 0 of each node (the
          {!Bitnet} layout) *)
  slots : int array;  (** per flat bit: arrival slot in δ *)
}

(* Settle every bit of node [id], LSB to MSB: cross-node sources are
   already final (smaller ids), and the only same-node sources are carry
   bits below [pos]. *)
let sweep_node (net : Bitnet.t) slots id =
  let dep_off = net.Bitnet.dep_off in
  let deps = net.Bitnet.deps in
  let cost = net.Bitnet.cost in
  for b = net.Bitnet.bit_base.(id) to net.Bitnet.bit_base.(id + 1) - 1 do
    let ready = ref 0 in
    for k = dep_off.(b) to dep_off.(b + 1) - 1 do
      let s = slots.(deps.(k)) in
      if s > !ready then ready := s
    done;
    slots.(b) <- !ready + cost.(b)
  done

(** Ascending-id sweep over a prebuilt net: one flat slot array, one
    indirection per dependency, no per-bit allocation. *)
let of_net (net : Bitnet.t) =
  let slots = Array.make (Bitnet.total_bits net) 0 in
  for id = 0 to Array.length net.Bitnet.bit_base - 2 do
    sweep_node net slots id
  done;
  { bit_base = net.Bitnet.bit_base; slots }

(** Incremental re-timing: arrival slots of [net] given [told], the
    arrival of a net with the identical bit layout whose dependency rows
    differ only at the [dirty] nodes (the {!Bitnet.rebuild_dirty}
    contract).  Nodes are re-swept in ascending id order from the
    smallest dirty id; a node whose slots come out unchanged stops the
    propagation, so the work is proportional to the affected cone, not
    the graph.  Bit-identical to [of_net net]. *)
let update_of_net (net : Bitnet.t) told ~dirty =
  let n_nodes = Array.length net.Bitnet.bit_base - 1 in
  let slots = Array.copy told.slots in
  let affected = Array.make (max n_nodes 1) false in
  let first = ref n_nodes in
  List.iter
    (fun id ->
      if id >= 0 && id < n_nodes then begin
        affected.(id) <- true;
        first := Int.min !first id
      end)
    dirty;
  let swept = ref 0 in
  (* A cross-node consumer has a strictly larger id than its producer, so
     marking consumers of a changed node always marks nodes not yet
     visited. *)
  for id = !first to n_nodes - 1 do
    if affected.(id) then begin
      incr swept;
      sweep_node net slots id;
      for b = net.Bitnet.bit_base.(id) to net.Bitnet.bit_base.(id + 1) - 1 do
        if slots.(b) <> told.slots.(b) then
          for k = net.Bitnet.rdep_off.(b) to net.Bitnet.rdep_off.(b + 1) - 1 do
            let c = Bitnet.node_of_slot net net.Bitnet.rdeps.(k) in
            if c <> id then affected.(c) <- true
          done
      done
    end
  done;
  if !swept > 0 then Hls_telemetry.count ~n:!swept "timing.incremental_nodes";
  { bit_base = net.Bitnet.bit_base; slots }

let compute graph = of_net (Bitnet.build graph)

(** Arrival slot of one node bit. *)
let slot t ~id ~bit = t.slots.(t.bit_base.(id) + bit)

(** The flat [bit_base]-indexed slot array — a read-only view shared with
    the deadline pass for word-blocked feasibility scans. *)
let flat_slots t = t.slots

(** Latest arrival over all bits of all nodes: the critical path length in
    δ (chained 1-bit additions). *)
let critical_delta t =
  let m = ref 0 in
  for b = 0 to Array.length t.slots - 1 do
    if t.slots.(b) > !m then m := t.slots.(b)
  done;
  !m

(** Earliest cycle (1-based) bit [bit] of node [id] can be computed in,
    under a chaining budget of [n_bits] δ per cycle.  Bits arriving at slot
    0 (pure wiring of inputs) belong to cycle 1. *)
let asap_cycle t ~n_bits ~id ~bit =
  if n_bits < 1 then invalid_arg "Arrival.asap_cycle: n_bits must be >= 1";
  let s = t.slots.(t.bit_base.(id) + bit) in
  max 1 (Hls_util.Int_math.ceil_div s n_bits)

let pp ppf t =
  for id = 0 to Array.length t.bit_base - 2 do
    Format.fprintf ppf "n%d:" id;
    for b = t.bit_base.(id) to t.bit_base.(id + 1) - 1 do
      Format.fprintf ppf " %d" t.slots.(b)
    done;
    Format.fprintf ppf "@ "
  done
