(** Per-operation lowerings for operative-kernel extraction (paper §3.1):
    every behavioural operation becomes unsigned additions plus glue.  Most
    callers should use {!Extract.run}; the individual lowerings are exposed
    for targeted testing and reuse.

    All constructors operate within a {!Hls_dfg.Rewrite} context, which
    maps old node ids to their value operands over the new graph. *)

open Hls_dfg.Types

type ctx = Hls_dfg.Rewrite.ctx

(** [a - b] as [a + not b + 1] at [width] bits. *)
val lower_sub :
  ctx -> ?label:string -> width:int -> operand -> operand -> operand

(** Two's-complement negation as [not a + 1]. *)
val lower_neg : ctx -> ?label:string -> width:int -> operand -> operand

(** Unsigned array multiplier: [Gate] partial-product rows accumulated by
    chained additions; result is [wa + wb] bits. *)
val array_multiply :
  ctx -> ?label:string -> operand -> operand -> operand

(** The Baugh & Wooley variant (paper §3.1): a two's-complement m×n
    product from one unsigned (m-1)×(n-1) multiplication plus
    sign-correction additions. *)
val baugh_wooley : ctx -> ?label:string -> operand -> operand -> operand

(** Multiplication by an integer constant: a CSD shift-add network at
    [width] bits. *)
val csd_multiply :
  ctx -> ?label:string -> signedness:signedness -> width:int -> operand ->
  int -> operand

(** [a < b] as one borrow-ripple addition; the node signedness picks the
    carry-out (unsigned) or sign-bit (signed) verdict. *)
val lower_lt :
  ctx -> ?label:string -> signedness:signedness -> operand -> operand ->
  operand

(** [a = b] via a subtraction and an or-reduction. *)
val lower_eq :
  ctx -> ?label:string -> signedness:signedness -> operand -> operand ->
  operand

(** Lower one behavioural node; returns the operand carrying its value at
    the node's declared width.  [Hls_dfg.Rewrite.run ~f:lower_node] is the
    whole extraction. *)
val lower_node : ctx -> node -> operand
