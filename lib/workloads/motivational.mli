(** The paper's two worked examples: the chain of data-dependent additions
    (Fig. 1a) and the 8-operation mixed-width DFG of Fig. 3a. *)

(** Fig. 1a generalized: [ops] chained [width]-bit additions (defaults 3 ×
    16, the paper's example; port names A, B, D, F as in the paper). *)
val chain : ?width:int -> ?ops:int -> unit -> Hls_dfg.Graph.t

(** The exact Fig. 1a example. *)
val chain3 : unit -> Hls_dfg.Graph.t

(** Fig. 3a: additions A(5), B,C,D,E(6), F,G,H(8) with B→C→E, D→E, F→H,
    G→H; critical path 9 δ. *)
val fig3 : unit -> Hls_dfg.Graph.t
