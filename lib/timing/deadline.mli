(** Backward bit-level deadline (ALAP) analysis.

    Given a total budget of [total_slots] = λ·n_bits δ units, the deadline
    of a result bit is the latest slot at which it may be produced while
    every consumer — including the carry chain towards its own upper bits —
    can still meet the overall deadline. *)

type t

(** Descending-id sweep over a prebuilt {!Bitnet} — one flat slot array
    in the net's [bit_base] layout, pulling through the transpose net, no
    per-bit allocation.  Use this when the net is
    shared with other passes. *)
val of_net :
  ?caps:(Hls_dfg.Types.node_id -> int -> int) -> Bitnet.t ->
  total_slots:int -> t

(** Monotone early-exit variant: deadlines are computed node by node in
    descending id order, and each node is validated against [arrival]
    right after its own sweep, when its slots are final.  [Ok t] means
    every bit was checked — the budget is feasible and [t] equals
    [of_net] on the same inputs; [Error (id, bit)] is the lowest violated
    bit of the largest violating id, reached after sweeping only the
    nodes from [id] up (infeasible budgets violate at the deepest nodes,
    which the descending sweep settles first). *)
val of_net_check :
  ?caps:(Hls_dfg.Types.node_id -> int -> int) -> Bitnet.t ->
  total_slots:int -> arrival:Arrival.t ->
  (t, Hls_dfg.Types.node_id * int) result

(** [compute graph ~total_slots ?caps] — [caps id bit] optionally tightens
    the initial deadline of individual bits below the global budget (used
    when fragment windows constrain bits beyond the pure dataflow ALAP,
    e.g. under the coalesced fragmentation policy).  Equivalent to
    [of_net ?caps (Bitnet.build graph) ~total_slots]. *)
val compute :
  ?caps:(Hls_dfg.Types.node_id -> int -> int) -> Hls_dfg.Graph.t ->
  total_slots:int -> t

(** Deadline slot of one node bit. *)
val slot : t -> id:Hls_dfg.Types.node_id -> bit:int -> int

(** Latest cycle (1-based) bit [bit] of node [id] may be computed in,
    under a chaining budget of [n_bits] δ per cycle. *)
val alap_cycle : t -> n_bits:int -> id:Hls_dfg.Types.node_id -> bit:int -> int

(** First bit whose deadline precedes its arrival, if any — the witness
    that a budget is infeasible. *)
val feasible_witness :
  Arrival.t -> t -> (Hls_dfg.Types.node_id * int) option

(** A schedule is feasible iff no bit's deadline precedes its arrival
    (short-circuits on the first violation). *)
val feasible : Arrival.t -> t -> bool
