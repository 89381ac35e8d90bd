(** The one graph-to-graph rebuild under kernel extraction (paper §3.1),
    operation fragmentation (§3.3) and the behavioural transformations:
    walk the nodes in topological order, map each node to an operand over
    the new graph, and rebind the ports. *)

open Types

(** A rebuild in progress: the new graph's builder and, indexed by old
    node id, the operand carrying that node's value in the new graph. *)
type ctx = {
  b : Builder.t;
  map : operand array;
}

(** Rewrite an operand of the old graph into the new graph; raises
    [Invalid_argument] if the referenced node has not been rewritten
    (or is out of the map's range). *)
val map_operand : ctx -> operand -> operand

(** [List.map (map_operand ctx)], without the closure. *)
val map_operands : ctx -> operand list -> operand list

(** Rebuild [g] under [name] (default: [g]'s name), replacing each node
    with [f ctx n] — [n]'s operands are NOT yet remapped; use
    {!map_operand}.  Input and output ports are kept in order.  The
    result is validated.  [capacity] is the expected node count of the
    result (default: [g]'s). *)
val run :
  ?name:string -> ?capacity:int -> Graph.t -> f:(ctx -> node -> operand) ->
  Graph.t

(** The identity rewrite of one node: copy it with remapped operands. *)
val copy : ctx -> node -> operand

(** Dead-code elimination: drop nodes whose value reaches no output port,
    renumbering the survivors densely in their original order. *)
val prune : Graph.t -> Graph.t
