(** Fragment selection (paper §3.3): per-bit (ASAP, ALAP) cycle pairs under
    the §3.2 chaining budget, grouped into maximal runs — the fragments. *)

type frag = {
  f_lo : int;  (** lowest original result bit of the fragment *)
  f_hi : int;
  f_asap : int;  (** earliest cycle (1-based) *)
  f_alap : int;  (** latest cycle *)
}

val frag_width : frag -> int

(** ASAP = ALAP: the fragment is already scheduled. *)
val is_fixed : frag -> bool

type plan = {
  latency : int;
  n_bits : int;  (** chaining budget: 1-bit additions per cycle *)
  critical : int;  (** critical path of the graph in δ *)
  per_node : frag list array;
      (** fragments per node id; [[]] for glue nodes *)
}

(** Fragmentation policies.

    - [`Full] is the paper's algorithm: one fragment per distinct
      (ASAP, ALAP) pair, so no bit loses any mobility.
    - [`Coalesced] is an ablation: adjacent fragments are merged while
      their windows still intersect, the merged δ-costly width fits the
      cycle budget, and a slot-level check finds a cycle that can hold the
      merged ripple.  Fewer, larger fragments mean less operand steering at
      the price of scheduling freedom; aggressive merging can make the
      whole schedule infeasible (the scheduler reports it). *)
type policy = [ `Full | `Coalesced ]

(** The literal fragmentation pseudocode printed in the paper (§3.3),
    for one operation with a uniform bit distribution: [width] bits spread
    [n_bits] per cycle over the window [asap..alap], fragments from pairing
    the earliest and latest distributions.  The bit-level {!compute}
    generalizes this; tests check agreement on uniform operations. *)
val paper_fragments :
  width:int -> n_bits:int -> asap:int -> alap:int -> frag list

(** Compute the fragmentation plan for scheduling [graph] — which must be
    in additive kernel form — over [latency] cycles.  [n_bits] defaults to
    the §3.2 estimate [ceil(critical / latency)].  [net] and [arrival], if
    given, must belong to [graph]; passing them lets a latency sweep build
    both once and share them across every candidate latency.  Raises
    [Invalid_argument] on non-kernel-form graphs or infeasible budgets
    (naming the first violated bit when one is known). *)
val compute :
  ?n_bits:int -> ?policy:policy -> ?net:Hls_timing.Bitnet.t ->
  ?arrival:Hls_timing.Arrival.t -> Hls_dfg.Graph.t -> latency:int -> plan

(** Recognize this module's infeasibility error: [Some message] when the
    exception is the [Invalid_argument] {!compute} raises for a budget that
    cannot cover the critical path, [None] otherwise (caller errors
    included).  Lets {!Hls_util.Failure} classifiers treat infeasible
    design points as permanent without string-matching at call sites. *)
val infeasibility_of_exn : exn -> string option

(** Number of additive operations after fragmentation. *)
val fragment_count : plan -> int

(** Additions that must be broken up (more than one fragment). *)
val broken_op_count : plan -> int

val pp_frag : Format.formatter -> frag -> unit
val pp : Format.formatter -> plan -> unit
