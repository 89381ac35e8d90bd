(** Helpers over {!Types.operand} values: bit-range selection over a
    source, with an extension mode applied when the consuming operation
    computes at a wider width. *)

open Types

(** Width of the selected bit range. *)
val width : operand -> int

(** [make src ~hi ~lo] selects bits [lo..hi] of [src]; raises
    [Invalid_argument] on a bad range.  Extension defaults to zero. *)
val make : ?ext:ext -> source -> hi:int -> lo:int -> operand

(** Full-range operand over a node's result. *)
val of_node : ?ext:ext -> node -> operand

(** Operand over a whole constant. *)
val of_const : ?ext:ext -> Hls_bitvec.t -> operand

(** Full-range operand over an input port. *)
val of_input : ?ext:ext -> port -> operand

(** [reslice o ~hi ~lo] selects bits [lo..hi] *of the operand's own range*
    (relative to [o.lo]); raises if the range escapes the operand. *)
val reslice : operand -> hi:int -> lo:int -> operand

(** Constant-one 1-bit operand (the usual carry-in). *)
val one : operand

(** Constant-zero 1-bit operand. *)
val zero_bit : operand

val equal : operand -> operand -> bool

(** [add_to_buffer buf o] appends [o] as a graph prints it:
    [<source>[hi:lo]], [s] appended when it sign-extends; the source is an
    input's name, [n<id>] for a node, or a constant as
    {!Hls_bitvec.add_to_buffer} writes it. *)
val add_to_buffer : Buffer.t -> operand -> unit

(** {!add_to_buffer}'s text. *)
val pp : Format.formatter -> operand -> unit

(** Integer value of a constant operand (its selected bits), interpreted
    per [signedness]; [None] for non-constant sources. *)
val const_int : signedness:signedness -> operand -> int option
