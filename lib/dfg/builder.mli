(** Imperative graph builder.

    Nodes receive consecutive ids in creation order and operands may only
    reference already-created nodes, so the finished graph is topologically
    sorted by construction.  {!finish} validates the result. *)

open Types

type t

val create : name:string -> t

(** [create] for an expected node count: the node array starts
    [capacity] long (and doubles when full). *)
val create_sized : capacity:int -> name:string -> t

(** Declare a primary input port and return a full-range operand over it
    (sign-extending when [signed]). *)
val input : ?signed:signedness -> t -> string -> width:int -> operand

(** Create a node with every field given and return its id — what a
    rebuild creating many nodes calls, with no optional-argument boxes
    and no result operand. *)
val append :
  t -> kind -> signedness:signedness -> width:int -> label:string ->
  origin:origin option -> operand list -> node_id

(** Create a node and return a full-range operand over its result. *)
val node :
  ?signedness:signedness -> ?label:string -> ?origin:origin -> t -> kind ->
  width:int -> operand list -> operand

(** Bind an output port to an operand. *)
val output : t -> string -> operand -> unit

(** The id an operand refers to; raises on inputs/constants. *)
val node_id_of : operand -> node_id

(** {1 Convenience constructors for behavioural specs} *)

val add :
  ?signedness:signedness -> ?label:string -> t -> width:int -> operand ->
  operand -> operand

val add_cin :
  ?signedness:signedness -> ?label:string -> t -> width:int -> operand ->
  operand -> operand -> operand

val sub :
  ?signedness:signedness -> ?label:string -> t -> width:int -> operand ->
  operand -> operand

val mul :
  ?signedness:signedness -> ?label:string -> t -> width:int -> operand ->
  operand -> operand

val lt :
  ?signedness:signedness -> ?label:string -> t -> operand -> operand ->
  operand

val max_ :
  ?signedness:signedness -> ?label:string -> t -> width:int -> operand ->
  operand -> operand

val min_ :
  ?signedness:signedness -> ?label:string -> t -> width:int -> operand ->
  operand -> operand

(** Validate and return the finished graph. *)
val finish : t -> Graph.t
