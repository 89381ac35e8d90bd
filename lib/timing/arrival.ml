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
    layout, and the kernel advances as a wavefront over the net's
    topological levels: every node of a level reads only slots settled by
    earlier levels (or its own carry chain). *)


type t = {
  bit_base : int array;
      (** length [node_count + 1]: flat index of bit 0 of each node (the
          {!Bitnet} layout) *)
  slots : int array;  (** per flat bit: arrival slot in δ *)
}

(* Settle every bit of node [id], LSB to MSB: cross-node sources are
   already final (earlier wavefront level), and the only same-node
   sources are carry bits below [pos]. *)
let sweep_node (net : Bitnet.t) slots id =
  let dep_off = net.Bitnet.dep_off in
  let flat_deps = net.Bitnet.flat_deps in
  let cost = net.Bitnet.cost in
  for b = net.Bitnet.bit_base.(id) to net.Bitnet.bit_base.(id + 1) - 1 do
    let ready = ref 0 in
    for k = dep_off.(b) to dep_off.(b + 1) - 1 do
      let s = slots.(flat_deps.(k)) in
      if s > !ready then ready := s
    done;
    slots.(b) <- !ready + cost.(b)
  done

(** Level-ordered wavefront over a prebuilt net: one flat slot array, one
    untagged indirection per dependency, no per-bit allocation. *)
let of_net (net : Bitnet.t) =
  let slots = Array.make (Bitnet.total_bits net) 0 in
  let n_levels = Bitnet.n_levels net in
  for l = 0 to n_levels - 1 do
    for i = net.Bitnet.level_off.(l) to net.Bitnet.level_off.(l + 1) - 1 do
      sweep_node net slots net.Bitnet.level_nodes.(i)
    done
  done;
  if n_levels > 0 then Hls_telemetry.count ~n:n_levels "timing.rounds";
  { bit_base = net.Bitnet.bit_base; slots }

(** Incremental re-timing: arrival slots of [net] given [told], the
    arrival of a net with the identical bit layout whose dependency rows
    differ only at the [dirty] nodes (the {!Bitnet.rebuild_dirty}
    contract).  Nodes are re-swept in wavefront order starting from the
    dirty set; a node whose slots come out unchanged stops the
    propagation, so the work is proportional to the affected cone, not
    the graph.  Bit-identical to [of_net net]. *)
let update_of_net (net : Bitnet.t) told ~dirty =
  let n_nodes = Array.length net.Bitnet.bit_base - 1 in
  let slots = Array.copy told.slots in
  let affected = Array.make (max n_nodes 1) false in
  List.iter
    (fun id -> if id >= 0 && id < n_nodes then affected.(id) <- true)
    dirty;
  let swept = ref 0 in
  (* [level_nodes] is every node in wavefront order: a cross-node
     consumer sits at a strictly higher level than its producer, so
     marking consumers of a changed node always marks nodes not yet
     visited. *)
  for i = 0 to n_nodes - 1 do
    let id = net.Bitnet.level_nodes.(i) in
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
