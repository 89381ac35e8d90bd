(** Equivalence checking strategies over DFGs.

    Two graphs are compared on their common output ports over input
    vectors for [a]'s ports:

    - {!exhaustive}: every input combination, when the total input width is
      small enough to enumerate — a proof, not a sample;
    - {!corners}: the classic corner vectors (all-zeros, all-ones, walking
      ones, min/max per signed port) that catch carry and sign bugs random
      sampling misses;
    - {!equivalent}: the combined strategy — exhaustive when affordable,
      otherwise corners plus random sampling.

    Vectors are evaluated bit-sliced, 63 per walk of each graph: every
    signal bit is one machine word whose bit [l] is that signal under
    vector [l].  The semantics are {!Hls_sim}'s bit for bit, and a
    mismatch is reported on the first failing vector in the order the
    strategy tries them (exhaustive index order, then {!corner_vectors},
    then {!Hls_sim.random_inputs} draws), on the first common output in
    [a]'s order that differs there.  The counter [check.vectors] counts
    the vectors evaluated.

    An input referenced by [b] that [a] lacks, or declares at another
    width, raises [Invalid_argument] as {!Hls_sim.run} does. *)

type verdict =
  | Proved  (** exhaustively checked: the graphs are equivalent *)
  | Passed of int  (** sampled [n] vectors without a mismatch *)
  | Failed of {
      input : (string * Hls_bitvec.t) list;
      port : string;
      left : Hls_bitvec.t;
      right : Hls_bitvec.t;
    }

val pp_verdict : Format.formatter -> verdict -> unit

(** Total input bits of a graph. *)
val input_bits : Hls_dfg.Graph.t -> int

(** Exhaustive check; [Invalid_argument] when the input space exceeds
    [max_bits] (default 20), when [max_bits] exceeds 61 (the vector count
    [2{^bits}] must stay a positive [int]), or when the graphs share no
    output. *)
val exhaustive :
  ?max_bits:int -> Hls_dfg.Graph.t -> Hls_dfg.Graph.t -> verdict

(** The corner vectors for a graph's ports. *)
val corner_vectors :
  Hls_dfg.Graph.t -> (string * Hls_bitvec.t) list list

(** Check the corner vectors only; [Invalid_argument] when the graphs
    share no output. *)
val corners : Hls_dfg.Graph.t -> Hls_dfg.Graph.t -> verdict

(** Combined strategy: exhaustive if the input space fits in
    [exhaustive_budget] bits (default 16), else corners + [samples] random
    vectors (default 200) drawn from a {!Hls_util.Prng} seeded with
    [seed].  [Invalid_argument] when [exhaustive_budget] exceeds 61, or
    as {!exhaustive} or {!corners} raise. *)
val equivalent :
  ?exhaustive_budget:int -> ?samples:int -> ?seed:int ->
  Hls_dfg.Graph.t -> Hls_dfg.Graph.t -> verdict

(** True for [Proved] or [Passed _]. *)
val ok : verdict -> bool
