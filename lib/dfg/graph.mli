(** The dataflow graph: nodes in topological order plus port bindings.

    Node ids are dense and every operand references a strictly smaller id,
    so iteration order is a topological order and the graph is acyclic by
    construction (enforced by {!Builder} and re-checked by {!validate}). *)

open Types

type index = {
  uses : (node * operand) list array;
      (** per producer id: every (consumer node, operand) reading it, in
          node order (operands in declaration order within a node) *)
  out_uses : (string * operand) list array;
      (** per producer id: the output ports it drives *)
}

type t = {
  name : string;
  inputs : port list;
  outputs : (string * operand) list;
      (** each output port is driven by one operand *)
  nodes : node array;  (** index = node id; topological by construction *)
  cached_index : index option Atomic.t;
      (** lazily built reverse adjacency; initialize to [Atomic.make None] *)
}

val name : t -> string
val node_count : t -> int

(** [node t id]: raises [Invalid_argument] for an unknown id. *)
val node : t -> node_id -> node

val nodes : t -> node list
val iter_nodes : (node -> unit) -> t -> unit
val fold_nodes : ('a -> node -> 'a) -> 'a -> t -> 'a
val find_input : t -> string -> port option
val input_exn : t -> string -> port

(** Width of whatever an operand source produces. *)
val source_width : t -> source -> int

(** Build the reverse adjacency (consumer index) in one O(V+E) pass. *)
val build_index : t -> index

(** The memoized reverse adjacency of the graph: built on first use, then
    O(1) per query.  Callers making many consumer queries should grab the
    index once and read its arrays directly. *)
val index : t -> index

(** All (consumer node, operand) pairs reading from node [id] (via the
    memoized {!index}). *)
val consumers : t -> node_id -> (node * operand) list

(** Output ports (name, operand) driven by node [id]. *)
val output_consumers : t -> node_id -> (string * operand) list

(** No node or output reads this node's value. *)
val is_dead : t -> node_id -> bool

(** Number of behavioural (additive-kernel) operations — the paper's
    "operations" count. *)
val behavioural_op_count : t -> int

val count_kind : t -> kind -> int

(** Total adder result bits: a structural proxy used by tests. *)
val total_add_bits : t -> int

exception Invalid of string

(** Structural validation: ids dense and ordered, operand references
    legal, arities and widths consistent.  Raises {!Invalid}. *)
val validate : t -> unit

val validate_result : t -> (unit, string) result

(** {1 Printed form}

    One line per item: [graph <name>], then [inputs: a/8, b/8], one line
    per node ([n3(label): add/9 u <- a[7:0], n2[8:0]s]), and
    [outputs: o <- n3[8:0]] without a trailing newline.  Operands and
    constants print as {!Operand.add_to_buffer} writes them. *)

val to_string : t -> string

(** {!to_string}'s text. *)
val pp : Format.formatter -> t -> unit

(** Hex MD5 of the graph's name, a newline, and its printed form: any
    edit to the graph changes it. *)
val digest : t -> string
