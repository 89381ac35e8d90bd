(** Per-bit dependency and delay model.

    Assigns to every result bit of every node a *cost* in δ (1-bit chained
    additions — the paper's unit) and the set of bits it depends on.
    Addition bits at operand-covered positions cost 1 δ; top pure-carry
    columns and all glue logic cost 0 δ (§3.2: "non-additive operations are
    not considered"). *)

open Hls_dfg.Types

(** A dependency of one result bit. *)
type dep =
  | Self of int  (** earlier bit of the same node (carry chain) *)
  | Bit of source * int  (** bit [i] of an operand source *)

(** [operand_bit o pos]: which source bit feeds position [pos] through
    operand [o] ([None] for zero-extension padding). *)
val operand_bit : operand -> int -> dep option

val all_operand_bits : operand -> dep list

(** [bit_deps graph node pos] returns [(cost_delta, deps)] for result bit
    [pos] of [node]. *)
val bit_deps : Hls_dfg.Graph.t -> node -> int -> int * dep list
