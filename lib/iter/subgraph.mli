(** Critical-subgraph extraction from a fragment schedule.

    Given an incumbent schedule and a reduced latency [target], collects
    the region of the design whose current placement is incompatible
    with finishing in [target] cycles at the same clock tier: every bit
    whose settle time misses its deadline under the reduced total budget
    [target * n_bits], plus everything feeding those bits combinationally
    in the same cycle along *tight* chains.  Only this region has to
    move: it is what stands between the incumbent and one cycle fewer. *)

type t = {
  schedule : Hls_sched.Frag_sched.t;
  target : int;  (** the reduced latency the extraction aimed at *)
  deadline : Hls_timing.Deadline.t;
      (** the schedule's net under the reduced budget [target * n_bits] *)
  member : bool array;  (** per node id: inside the critical region *)
  nodes : Hls_dfg.Types.node_id list;  (** region members, ascending *)
  region_adds : int;  (** Add fragments inside the region *)
  witness : (Hls_dfg.Types.node_id * int) list;
      (** one maximal-violation chain, producer first: consecutive
          (node, bit) pairs each settling exactly its δ cost after its
          predecessor, ending at the bit that misses its reduced
          deadline the hardest; empty when nothing violates *)
}

(** [extract s ~target] — raises [Invalid_argument] when [target < 1].
    Computes the reduced-budget deadlines, the region and its witness.
    Meaningful when {!infeasible_witness} is [None]; total either way. *)
val extract : Hls_sched.Frag_sched.t -> target:int -> t

(** Region membership of a node id (false outside the id range). *)
val mem : t -> Hls_dfg.Types.node_id -> bool

val size : t -> int

(** [infeasible_witness t] — relaxation-level convergence certificate
    for [t.target], on the deadlines {!extract} already computed:
    [Some (id, bit)] names a bit whose pure-dataflow arrival already
    misses its deadline under the reduced total budget
    [target * n_bits] with full mobility, proving no schedule of this
    transformed graph fits [target] cycles at this clock tier.  [None]
    means the relaxation is feasible (the greedy pass may still fail). *)
val infeasible_witness : t -> (Hls_dfg.Types.node_id * int) option
