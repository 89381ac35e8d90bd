(** Precomputed bit-level dependency net.

    A per-graph, immutable, CSR-style flat encoding of the {!Bitdep}
    dependency model: one pass over the graph materialises every bit's δ
    cost and flat dependency list into int arrays, so the timing passes
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
  deps : int array;
      (** per dependency: the flat [bit_base]-indexed slot of the source
          bit.  A source below [bit_base.(id)] belongs to an earlier node
          (operands reference strictly smaller ids); one at or above it is
          the consumer's own carry chain *)
  rdep_off : int array;
      (** length [total_bits + 1]: CSR offsets into [rdeps] *)
  rdeps : int array;
      (** transpose of [deps]: per flat bit, the flat slots of its
          consumer bits — lets the deadline pass pull instead of push *)
}

(** Build the net in one O(V + E) pass.  Raises [Invalid_argument] on a
    malformed addition. *)
val build : Hls_dfg.Graph.t -> t

(** {2 Writing a net while its graph is built}

    A graph rebuild that knows every node as it creates it can write the
    net in the same pass: {!write} each node's kind, width and operands
    in id order, then {!finish} with the finished graph.  The rows are
    those {!build} emits (one dependency model), and the result equals
    [build graph] array for array. *)

type writer

(** A writer for a graph of exactly [nodes] nodes and [bits] result
    bits. *)
val writer : nodes:int -> bits:int -> writer

(** Write the rows of the next node (id = nodes written so far).  Raises
    [Invalid_argument] as {!build} does for a malformed addition, and past
    the [nodes] or [bits] given. *)
val write :
  writer -> Hls_dfg.Types.kind -> width:int -> Hls_dfg.Types.operand list ->
  unit

(** The net of [graph], whose nodes must be exactly the ones written, in
    order; raises [Invalid_argument] when the node count or a width
    differs. *)
val finish : writer -> Hls_dfg.Graph.t -> t

(** [rebuild_dirty old graph ~dirty] rebuilds the net of [graph] after an
    edit confined to the [dirty] node ids, reusing [old] (the net of the
    pre-edit graph).  The dependency model of a node reads only its own
    kind/operands/width and the flat layout, so under an unmoved layout
    clean nodes' rows are blitted from [old] and only dirty nodes re-run
    the model; the derived structures (prefix counts, transpose) are
    recomputed with cheap O(V + E) int passes.  The result is
    bit-identical to [build graph].

    Returns [None] when the edit changed the node count or any node
    width (the flat layout moved — fall back to {!build}). *)
val rebuild_dirty :
  t -> Hls_dfg.Graph.t -> dirty:Hls_dfg.Types.node_id list -> t option

(** {2 Queries} *)

val total_bits : t -> int

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
