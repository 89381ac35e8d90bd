(** The presynthesis cleanup passes, wrapped by {!Catalog} as siteless
    entries.  Dead-code elimination is {!Hls_dfg.Rewrite.prune}. *)

(** Constant folding and algebraic simplification: all-constant nodes are
    evaluated with the reference simulator's own semantics; x+0, x-0, x·1,
    x·0, x&0, x|0 and constant-select muxes collapse. *)
val fold : Hls_dfg.Graph.t -> Hls_dfg.Graph.t

(** Common-subexpression elimination: structurally identical nodes (same
    kind, signedness, width and remapped operands) are computed once. *)
val cse : Hls_dfg.Graph.t -> Hls_dfg.Graph.t

(** Fold, CSE, DCE iterated until the node count stops shrinking (at most
    4 rounds — real graphs settle in one or two).  Semantics-preserving by
    construction and re-checked by simulation in the test-suite. *)
val normalize : Hls_dfg.Graph.t -> Hls_dfg.Graph.t
