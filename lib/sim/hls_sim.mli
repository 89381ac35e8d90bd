(** Bit-true behavioural simulator for DFGs.

    This is the reference semantics against which every transformation in
    the flow is checked: operative-kernel extraction, operation
    fragmentation, scheduling-preserving rewrites and RTL generation must
    all leave the input→output function of the graph unchanged.
    {!Hls_check} evaluates the same semantics bit-sliced, 63 vectors at a
    time, to check both sides of a transformation; the cycle-accurate
    RTL simulator and the cleanup passes evaluate through this module. *)

type env = (string * Hls_bitvec.t) list
(** Input valuation: one bit vector per primary input port, exact width. *)

type trace = {
  node_values : Hls_bitvec.t array;  (** value of every node, by id *)
  outputs : (string * Hls_bitvec.t) list;
}

(** [run graph ~inputs] evaluates the whole graph.  Raises
    [Invalid_argument] if an input is missing or has the wrong width. *)
val run : Hls_dfg.Graph.t -> inputs:env -> trace

(** Convenience: only the output valuation. *)
val outputs : Hls_dfg.Graph.t -> inputs:env -> (string * Hls_bitvec.t) list

(** The value an operand denotes under a trace, extended to [width]. *)
val operand_value :
  Hls_dfg.Graph.t -> trace -> inputs:env -> width:int ->
  Hls_dfg.Types.operand -> Hls_bitvec.t

(** Evaluate a single node given the values of all earlier nodes
    (used by the cycle-accurate RTL simulator to re-execute nodes under a
    schedule). *)
val eval_node :
  Hls_dfg.Graph.t -> Hls_bitvec.t array -> inputs:env ->
  Hls_dfg.Types.node -> Hls_bitvec.t

(** Draw a random full-width valuation for every input port. *)
val random_inputs : Hls_dfg.Graph.t -> Hls_util.Prng.t -> env
