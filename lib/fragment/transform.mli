(** Specification transformation: rebuild a kernel-form graph with every
    multi-fragment addition replaced by a chain of smaller additions linked
    through named carry bits (the paper's Fig. 2a idiom), reassembled by
    pure wiring so the graph's function is unchanged.  The rebuild writes
    the new graph's {!Hls_timing.Bitnet} rows as it creates each node, so
    a transform comes with the net of its graph. *)

(** Where a transformed node's scheduling window comes from. *)
type window_src =
  | Free  (** glue, or an addition the plan leaves uncut: [(1, latency)] *)
  | Frag of { src : Hls_dfg.Types.node_id; index : int }
      (** fragment [index] of [plan.per_node.(src)]: its (ASAP, ALAP) *)

type t = {
  graph : Hls_dfg.Graph.t;
  plan : Mobility.plan;
  source : Hls_dfg.Graph.t;
      (** the kernel-form graph the transform started from *)
  windows : (int * int) array;
      (** per transformed-node id: (ASAP, ALAP) cycle window *)
  window_srcs : window_src array;
      (** per transformed-node id: the plan fragment that sets its window *)
  net : Hls_timing.Bitnet.t;
      (** dependency net of [graph], built in the same pass *)
}

(** Apply a fragmentation plan.  The graph depends on the plan only
    through its cuts (each node's fragment [f_lo]/[f_hi] list; [[]] and
    [[f]] differ), so when [like.source] is physically this graph and the
    plan cuts every node as [like.plan] does, the result is
    [{ like with plan; windows }]: [like.graph] and [like.net] themselves,
    windows recomputed in O(nodes).  Otherwise it builds a fresh graph
    and its net in one pass: equal to what a rebuild followed by
    [Bitnet.build] of the rebuilt graph gives, array for array. *)
val apply : ?like:t -> Hls_dfg.Graph.t -> Mobility.plan -> t

(** Plan + apply in one step.  [net]/[arrival] are forwarded to
    {!Mobility.compute} so sweeps can share them across latencies; [like]
    to {!apply}. *)
val run :
  ?like:t -> ?n_bits:int -> ?policy:Mobility.policy ->
  ?net:Hls_timing.Bitnet.t ->
  ?arrival:Hls_timing.Arrival.t -> Hls_dfg.Graph.t -> latency:int -> t

(** Number of additive operations in the transformed specification. *)
val op_count : t -> int
