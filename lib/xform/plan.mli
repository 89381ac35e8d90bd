(** What a transformation pass did (or intends to do) to a graph: the
    sites it matched and the node-count / behavioural-depth effect.  Every
    pass application in the {!Engine} carries one of these, so a recipe
    run produces an auditable plan log. *)

type site = {
  at : Hls_dfg.Types.node_id;  (** node in the *input* graph *)
  note : string;  (** human-readable description of the rewrite there *)
}

type t = {
  pass : string;
  sites : site list;
  nodes_before : int;
  nodes_after : int;
  depth_before : int;  (** behavioural depth, see {!depth} *)
  depth_after : int;
}

(** Longest output-reaching chain of behavioural operations (glue is free,
    matching the paper's delay metric): the depth the bitnet's critical
    path grows from.  Tree-height reduction exists to shrink this. *)
val depth : Hls_dfg.Graph.t -> int

(** Per-node behavioural depth (index = node id). *)
val node_depths : Hls_dfg.Graph.t -> int array

val make :
  pass:string -> sites:site list -> before:Hls_dfg.Graph.t ->
  after:Hls_dfg.Graph.t -> t

(** The pass matched something or changed the node count. *)
val fired : t -> bool

val pp : Format.formatter -> t -> unit
