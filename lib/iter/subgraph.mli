(** Critical-subgraph extraction from a fragment schedule.

    Given an incumbent schedule and a reduced latency [target], collects
    the region of the design whose current placement is incompatible
    with finishing in [target] cycles at the same clock tier: every bit
    whose settle time misses its deadline under the reduced total budget
    [target * n_bits], plus everything feeding those bits combinationally
    in the same cycle along *tight* chains.  Only this region has to
    move — it is the unit of rework of the iteration driver; everything
    else can be pinned. *)

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
  dirty_ops : string list;
      (** original operations owning some region fragment *)
  pin_map : (string * (int * int * int) list) list;
      (** incumbent placement of every clean original operation:
          op name -> [(orig_lo, orig_hi, cycle)] per Add fragment *)
}

(** [extract s ~target] — raises [Invalid_argument] when [target < 1].
    Computes only the region, its witness and the pin map; the boundary
    and the slack histogram are the functions below.  Meaningful when
    {!infeasible_witness} is [None]; total either way. *)
val extract : Hls_sched.Frag_sched.t -> target:int -> t

(** Region membership of a node id (false outside the id range). *)
val mem : t -> Hls_dfg.Types.node_id -> bool

val size : t -> int

(** Non-region nodes feeding some region node, ascending; computed on
    demand. *)
val boundary_in : t -> Hls_dfg.Types.node_id list

(** Region nodes consumed outside the region (or at outputs),
    ascending; computed on demand. *)
val boundary_out : t -> Hls_dfg.Types.node_id list

(** (slack in δ, bit count) over δ-costly Add bits, ascending; slack =
    reduced deadline - current settle slot, so negative buckets are the
    bits that must move.  Computed on demand. *)
val slack_hist : t -> (int * int) list

(** [pin_for t g'] — the pin function the iteration driver hands to
    {!Hls_sched.Frag_sched.schedule} for a re-planned graph [g'] (whose
    node ids differ from the incumbent's): an Add fragment of a clean
    original operation is pinned to the incumbent cycle of the fragment
    that produced its low bit; dirty-op fragments, anonymous fragments
    and glue stay free.  Pins outside a fragment's new window are
    ignored by the scheduler, so stale placements degrade to freedom,
    never to infeasibility. *)
val pin_for :
  t -> Hls_dfg.Graph.t -> Hls_dfg.Types.node_id -> int option

(** [infeasible_witness t] — relaxation-level convergence certificate
    for [t.target], on the deadlines {!extract} already computed:
    [Some (id, bit)] names a bit whose pure-dataflow arrival already
    misses its deadline under the reduced total budget
    [target * n_bits] with full mobility, proving no schedule of this
    transformed graph fits [target] cycles at this clock tier.  [None]
    means the relaxation is feasible (the greedy pass may still fail). *)
val infeasible_witness : t -> (Hls_dfg.Types.node_id * int) option

val pp : Format.formatter -> t -> unit
