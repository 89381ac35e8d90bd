(** Precomputed bit-level dependency net.

    A per-graph, immutable, CSR-style flat encoding of the {!Bitdep}
    dependency model: one pass over the graph materialises every bit's δ
    cost and packed dependency list into int arrays, so the timing passes
    (arrival, deadline, mobility, fragment scheduling) iterate over flat
    memory instead of re-deriving lists per query.  [Input]/[Const] source
    bits are omitted — they are stable at slot 0 and never constrain any
    analysis.  The net is immutable after construction and safe to share
    across domains. *)

type t = {
  graph : Hls_dfg.Graph.t;
  bit_base : int array;
      (** length [node_count + 1]: flat index of bit 0 of each node *)
  cost : int array;  (** per flat bit: δ cost of producing it *)
  costly_prefix : int array;
      (** length [total_bits + 1]: running count of δ-costly bits *)
  dep_off : int array;
      (** length [total_bits + 1]: CSR offsets into [deps] *)
  deps : int array;  (** packed dependencies *)
  flat_deps : int array;
      (** [deps] re-encoded for the wavefront kernels: same [dep_off]
          offsets, each entry the flat [bit_base]-indexed slot of the
          source bit — one load, no tag decode *)
  node_level : int array;
      (** per node: topological level (0 = fed only by inputs/constants
          and its own carry chain) *)
  level_off : int array;
      (** length [n_levels + 1]: CSR offsets into [level_nodes] *)
  level_nodes : int array;
      (** node ids grouped by level, ascending id within a level — the
          wavefront order of the timing kernels *)
  rdep_off : int array;
      (** length [total_bits + 1]: CSR offsets into [rdeps] *)
  rdeps : int array;
      (** transpose of [flat_deps]: per flat bit, the flat slots of its
          consumer bits — lets the deadline pass pull instead of push *)
}

(** Build the net in one O(V + E) pass.  Raises [Invalid_argument] if any
    node is wider than the packed encoding allows (2^20 - 1 bits). *)
val build : Hls_dfg.Graph.t -> t

(** [rebuild_dirty old graph ~dirty] rebuilds the net of [graph] after an
    edit confined to the [dirty] node ids, reusing [old] (the net of the
    pre-edit graph).  The dependency model of a node reads only its own
    kind/operands/width, so clean nodes' packed rows are blitted from
    [old] and only dirty nodes re-run the model; the derived structures
    (levels, transpose) are recomputed with cheap O(V + E) int
    passes.  The result is bit-identical to [build graph].

    Returns [None] when the edit changed the node count or any node
    width (the flat layout moved — fall back to {!build}). *)
val rebuild_dirty :
  t -> Hls_dfg.Graph.t -> dirty:Hls_dfg.Types.node_id list -> t option

(** {2 Packed-dependency accessors}

    A dependency is one int: tag bit 0 distinguishes a same-node carry
    ([Self], tag 0) from an operand bit ([Bit (Node id, i)], tag 1). *)

val dep_is_self : int -> bool

(** Earlier bit of the same node (valid when [dep_is_self]). *)
val dep_self_bit : int -> int

(** Source node id (valid when [not (dep_is_self d)]). *)
val dep_node_id : int -> int

(** Source node bit (valid when [not (dep_is_self d)]). *)
val dep_node_bit : int -> int

(** {2 Queries} *)

val total_bits : t -> int

(** Number of topological levels (0 for the empty graph). *)
val n_levels : t -> int

(** Number of weakly-connected regions, joined by operand edges (0 for
    the empty graph).  Counted on demand in O(V + E). *)
val n_regions : t -> int

val width : t -> id:Hls_dfg.Types.node_id -> int

(** δ cost of producing bit [bit] of node [id]. *)
val cost_of : t -> id:Hls_dfg.Types.node_id -> bit:int -> int

(** δ-costly bits among result bits [lo..hi] (inclusive) of node [id],
    in O(1). *)
val costly_in_range : t -> id:Hls_dfg.Types.node_id -> lo:int -> hi:int -> int

(** δ-costly bits of the whole node, in O(1). *)
val costly_width : t -> id:Hls_dfg.Types.node_id -> int

(** Owning node of a flat [bit_base]-indexed slot, in O(log V) — the
    inverse of [bit_base.(id) + bit]. *)
val node_of_slot : t -> int -> Hls_dfg.Types.node_id

(** Fold over the packed deps of one bit, allocation-free. *)
val fold_deps :
  t -> id:Hls_dfg.Types.node_id -> bit:int -> init:'a ->
  f:('a -> int -> 'a) -> 'a

(** Decode one bit's deps back to {!Bitdep.dep} list form (minus the
    omitted [Input]/[Const] bits) — for tests, not hot paths. *)
val deps_list : t -> id:Hls_dfg.Types.node_id -> bit:int -> Bitdep.dep list
