(** Operative-kernel extraction driver (paper §3.1).

    Rewrites the behavioural graph node by node through {!Lower} into
    unsigned additions plus glue.  The result is a graph in *additive
    kernel form*: its only δ-costly nodes are [Add] nodes, which is the
    input form both the cycle estimation (§3.2) and the fragmentation
    (§3.3) expect. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Rewrite = Hls_dfg.Rewrite

(** A graph is in additive kernel form when no behavioural kind other than
    plain unsigned addition remains. *)
let is_kernel_form g =
  Graph.fold_nodes
    (fun acc n -> acc && match n.kind with Add -> true | k -> is_glue k)
    true g

let extract (g : Graph.t) =
  let result =
    Rewrite.run ~name:(Graph.name g ^ "_kernel") g ~f:Lower.lower_node
  in
  assert (is_kernel_form result);
  result

(** Kernel lowering can leave unused slices (e.g. the top product bits of
    a truncated multiplication); synthesis should not pay for them. *)
let eliminate_dead = Rewrite.prune

(** Full phase 1: lower, then drop dead logic. *)
let run g = eliminate_dead (extract g)
