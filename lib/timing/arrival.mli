(** Forward bit-level arrival analysis — the "rippling" model of the
    paper's Figs. 1e and 3b.

    The arrival slot of a result bit is the number of δ units (1-bit
    chained additions) after the start of execution at which that bit is
    stable, assuming unlimited chaining.  Registering a value at a cycle
    boundary never makes it available earlier than its combinational
    arrival, so under a per-cycle budget of [n_bits] δ the earliest cycle a
    bit can be produced in is simply [ceil(slot / n_bits)]: the
    unconstrained arrival time *is* the bit-level ASAP schedule. *)

type t

(** Compute arrival slots over a prebuilt {!Bitnet}: one ascending-id
    sweep over a flat slot array sharing the net's [bit_base] layout —
    one indirection per dependency, no per-bit allocation.  Use this when the net is shared with other passes
    (deadline, mobility, fragment scheduling). *)
val of_net : Bitnet.t -> t

(** [update_of_net net told ~dirty] — incremental re-timing.  [net] must
    share its flat bit layout with the net [told] was computed on, with
    dependency rows differing only at the [dirty] node ids (exactly what
    {!Bitnet.rebuild_dirty} produces).  Walks ids ascending from the
    smallest dirty id and re-sweeps only the cone reachable from the
    dirty set, pruning where recomputed slots come out
    unchanged; bit-identical to [of_net net]. *)
val update_of_net :
  Bitnet.t -> t -> dirty:Hls_dfg.Types.node_id list -> t

(** Compute arrival slots for every bit of every node.  Equivalent to
    [of_net (Bitnet.build graph)]. *)
val compute : Hls_dfg.Graph.t -> t

(** Arrival slot of one node bit (0 = stable at start). *)
val slot : t -> id:Hls_dfg.Types.node_id -> bit:int -> int

(** The flat [bit_base]-indexed slot array backing [t] — a read-only
    view (do not mutate) used by the deadline pass for word-blocked
    feasibility scans. *)
val flat_slots : t -> int array

(** Latest arrival over all bits of all nodes: the critical path length in
    δ. *)
val critical_delta : t -> int

(** Earliest cycle (1-based) bit [bit] of node [id] can be computed in,
    under a chaining budget of [n_bits] δ per cycle. *)
val asap_cycle : t -> n_bits:int -> id:Hls_dfg.Types.node_id -> bit:int -> int

val pp : Format.formatter -> t -> unit
