(** Backward bit-level deadline (ALAP) analysis.

    Given a total budget of [total_slots] = λ · n_bits δ units, the deadline
    of a result bit is the latest slot at which it may be produced while
    every consumer — including the carry chain towards its own upper bits —
    can still meet the overall deadline.  A consumer bit with cost c needs
    its dependencies ready c slots earlier; registering across a cycle
    boundary never relaxes this (a value finished in slot s of cycle k is
    available from slot s+1 onwards, or from the start of any later cycle,
    both of which the uniform [l' - cost'] bound captures).

    The latest cycle a bit can be produced in is [ceil(deadline / n_bits)],
    mirroring {!Arrival.asap_cycle}.

    Like {!Arrival}, slots live in one flat [bit_base]-indexed array, and
    the kernel sweeps node ids in descending order, {e pulling} through
    the transpose net ([rdeps]) instead of pushing: when a bit is pulled,
    every one of its consumers is already final (cross-node consumers
    have strictly larger ids; the only same-node consumer of bit [pos] is
    the carry into [pos + 1], pulled just before).  Pull order is what
    makes the early exit of {!of_net_check} possible: a node's slots are
    final the moment the node is swept. *)


type t = {
  total_slots : int;
  bit_base : int array;
      (** length [node_count + 1]: flat index of bit 0 of each node (the
          {!Bitnet} layout) *)
  slots : int array;  (** per flat bit: deadline slot in δ *)
}

(* Flat initial deadlines: one [Array.make] plus, only when [caps] is
   given, a tightening pass — no per-node closure allocation (the nested
   [Array.init] of the original layout dominated small-budget runs). *)
let init_slots ?caps bit_base ~total_slots =
  if total_slots < 0 then invalid_arg "Deadline.compute: negative budget";
  let n_nodes = Array.length bit_base - 1 in
  let slots = Array.make bit_base.(n_nodes) total_slots in
  (match caps with
  | None -> ()
  | Some f ->
      for id = 0 to n_nodes - 1 do
        let base = bit_base.(id) in
        for bit = 0 to bit_base.(id + 1) - base - 1 do
          let c = f id bit in
          if c < total_slots then slots.(base + bit) <- c
        done
      done);
  slots

(* Settle every bit of node [id], MSB to LSB, by pulling over the
   transpose net: each consumer's slot is already final (larger id, or
   the carry bit just above), so one min-fold per bit suffices. *)
let sweep_node_rev (net : Bitnet.t) slots id =
  let rdep_off = net.Bitnet.rdep_off in
  let rdeps = net.Bitnet.rdeps in
  let cost = net.Bitnet.cost in
  for b = net.Bitnet.bit_base.(id + 1) - 1 downto net.Bitnet.bit_base.(id) do
    let dl = ref slots.(b) in
    for k = rdep_off.(b) to rdep_off.(b + 1) - 1 do
      let c = rdeps.(k) in
      let bound = slots.(c) - cost.(c) in
      if bound < !dl then dl := bound
    done;
    slots.(b) <- !dl
  done

(** Descending-id sweep over a prebuilt net: flat slot array,
    pull-based, no per-bit allocation. *)
let of_net ?caps (net : Bitnet.t) ~total_slots =
  let bit_base = net.Bitnet.bit_base in
  let slots = init_slots ?caps bit_base ~total_slots in
  for id = Array.length bit_base - 2 downto 0 do
    sweep_node_rev net slots id
  done;
  { total_slots; bit_base; slots }

exception Violated of int * int

(** Monotone early-exit variant: compute the deadlines node by node, in
    descending id order, and validate each node against [arrival] the
    moment its own sweep makes it final.  An infeasible budget violates
    first at the {e deepest} nodes — exactly the ones the descending
    sweep settles first — so hopeless budgets bail after a fraction of
    the sweep.  [Ok t] means every bit was checked: the budget is
    feasible, no separate {!feasible} pass needed. *)
let of_net_check ?caps (net : Bitnet.t) ~total_slots ~arrival =
  let bit_base = net.Bitnet.bit_base in
  let slots = init_slots ?caps bit_base ~total_slots in
  let arr = Arrival.flat_slots arrival in
  try
    for id = Array.length bit_base - 2 downto 0 do
      sweep_node_rev net slots id;
      for b = bit_base.(id) to bit_base.(id + 1) - 1 do
        if slots.(b) < arr.(b) then raise (Violated (id, b - bit_base.(id)))
      done
    done;
    Ok { total_slots; bit_base; slots }
  with Violated (id, bit) -> Error (id, bit)

(** [compute graph ~total_slots ?caps] — [caps id bit] optionally tightens
    the initial deadline of individual bits below the global budget (used
    when fragment windows constrain bits beyond the pure dataflow ALAP,
    e.g. under the coalesced fragmentation policy). *)
let compute ?caps graph ~total_slots =
  of_net ?caps (Bitnet.build graph) ~total_slots

let slot t ~id ~bit = t.slots.(t.bit_base.(id) + bit)

(** Latest cycle (1-based) bit [bit] of node [id] may be computed in, under
    a chaining budget of [n_bits] δ per cycle. *)
let alap_cycle t ~n_bits ~id ~bit =
  if n_bits < 1 then invalid_arg "Deadline.alap_cycle: n_bits must be >= 1";
  max 1 (Hls_util.Int_math.ceil_div t.slots.(t.bit_base.(id) + bit) n_bits)

(** First bit whose deadline precedes its arrival, if any — the witness
    that a budget is infeasible.  One flat scan in (node, bit) order over
    the shared layout; the words-swept accounting uses the same
    63-bits-per-word blocking as {!Hls_bitvec.Wordset}. *)
let feasible_witness arrival t =
  let arr = Arrival.flat_slots arrival in
  let n_bits = Array.length t.slots in
  let b = ref 0 in
  while !b < n_bits && t.slots.(!b) >= arr.(!b) do
    incr b
  done;
  if n_bits > 0 then
    Hls_telemetry.count
      ~n:((min !b (n_bits - 1) / Hls_bitvec.Wordset.bits_per_word) + 1)
      "timing.words_swept";
  if !b >= n_bits then None
  else begin
    let id = ref 0 in
    while t.bit_base.(!id + 1) <= !b do
      incr id
    done;
    Some (!id, !b - t.bit_base.(!id))
  end

(** A schedule is feasible iff no bit's deadline precedes its arrival
    (short-circuits on the first violation). *)
let feasible arrival t = feasible_witness arrival t = None
