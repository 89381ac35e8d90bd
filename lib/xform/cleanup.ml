(* The presynthesis cleanup passes: constant folding, common-subexpression
   elimination and their fixed point with dead-code elimination
   ([Hls_dfg.Rewrite.prune]).  They predate the plan machinery, so the
   catalog wraps them as siteless entries. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module B = Hls_dfg.Builder
module Operand = Hls_dfg.Operand
module Rewrite = Hls_dfg.Rewrite
module Bv = Hls_bitvec

(* --- constant folding and algebraic simplification ---

   A node whose operands are all constants is evaluated at compile time
   (using the reference simulator's own semantics, so folding can never
   disagree with execution); the usual identities collapse trivial
   operations: x+0, x-0, x·1, x·0, x&0, x|0, muxes with constant
   selects. *)

(* Constant value of an operand in the new graph, if any (the full selected
   range). *)
let const_of (o : operand) =
  match o.src with
  | Const bv -> Some (Bv.slice bv ~hi:o.hi ~lo:o.lo)
  | Input _ | Node _ -> None

let is_zero o = match const_of o with Some bv -> Bv.to_int bv = 0 | None -> false

let is_one o = match const_of o with Some bv -> Bv.to_int bv = 1 | None -> false

(* Wrap an operand so it denotes the node's width (for identity
   rewrites that return an operand of different width). *)
let fit ctx (n : node) o =
  let w = Operand.width o in
  if w = n.width then o
  else
    B.node ctx.Rewrite.b Wire ~width:n.width ~label:n.label [ o ]

let fold_node ctx (n : node) =
  let operands = List.map (Rewrite.map_operand ctx) n.operands in
  let consts = List.map const_of operands in
  let all_const = List.for_all Option.is_some consts in
  if all_const && n.operands <> [] then begin
    (* Evaluate with the reference semantics on a shim graph slice. *)
    let shim = { n with operands } in
    let value =
      Hls_sim.eval_node
        { Graph.name = "fold"; inputs = []; outputs = []; nodes = [||];
          cached_index = Atomic.make None }
        [||] ~inputs:[] shim
    in
    Operand.of_const value
  end
  else
    let op i = List.nth operands i in
    match n.kind with
    | Add when List.length operands = 2 && is_zero (op 0)
               && Operand.width (op 1) >= n.width ->
        fit ctx n (op 1)
    | Add when List.length operands = 2 && is_zero (op 1)
               && Operand.width (op 0) >= n.width ->
        fit ctx n (op 0)
    | Sub when is_zero (op 1) && Operand.width (op 0) >= n.width ->
        fit ctx n (op 0)
    | Mul when is_zero (op 0) || is_zero (op 1) ->
        Operand.of_const (Bv.zero n.width)
    | Mul when is_one (op 1) && n.signedness = Unsigned ->
        fit ctx n (op 0)
    | Mul when is_one (op 0) && n.signedness = Unsigned ->
        fit ctx n (op 1)
    | And when is_zero (op 0) || is_zero (op 1) ->
        Operand.of_const (Bv.zero n.width)
    | Or when is_zero (op 0) -> fit ctx n (op 1)
    | Or when is_zero (op 1) -> fit ctx n (op 0)
    | Gate when is_zero (op 1) -> Operand.of_const (Bv.zero n.width)
    | Gate when is_one (op 1) -> fit ctx n (op 0)
    | Mux when is_one (op 0) -> fit ctx n (op 1)
    | Mux when is_zero (op 0) -> fit ctx n (op 2)
    | _ ->
        B.node ctx.Rewrite.b n.kind ~width:n.width ~signedness:n.signedness
          ~label:n.label ?origin:n.origin operands

let fold g = Rewrite.run g ~f:fold_node

(* --- common-subexpression elimination ---

   Structurally identical nodes (same kind, signedness, width and
   remapped operands) are computed once.  Labels and origins of the
   surviving node win; duplicates simply alias it. *)

(* A structural key for a node over the *new* graph's operands. *)
type key = {
  k_kind : kind;
  k_sign : signedness;
  k_width : int;
  k_operands : (source * int * int * ext) list;
}

let key_of (n : node) operands =
  {
    k_kind = n.kind;
    k_sign = n.signedness;
    k_width = n.width;
    k_operands = List.map (fun o -> (o.src, o.hi, o.lo, o.ext)) operands;
  }

let cse g =
  let table : (key, operand) Hashtbl.t = Hashtbl.create 64 in
  Rewrite.run g ~f:(fun ctx n ->
      let operands = List.map (Rewrite.map_operand ctx) n.operands in
      let key = key_of n operands in
      match Hashtbl.find_opt table key with
      | Some existing -> existing
      | None ->
          let o =
            B.node ctx.Rewrite.b n.kind ~width:n.width
              ~signedness:n.signedness ~label:n.label ?origin:n.origin
              operands
          in
          Hashtbl.replace table key o;
          o)

(* --- fold, CSE, DCE iterated to a fixed point (at most 4 rounds) ---

   Folding can expose sharing, sharing can expose dead nodes.  Sound by
   construction: every constituent pass is semantics-preserving, and the
   test-suite re-checks the composition by simulation. *)

let normalize g =
  let rec go g rounds =
    if rounds >= 4 then g
    else
      let g' = Rewrite.prune (cse (fold g)) in
      if Graph.node_count g' >= Graph.node_count g then g'
      else go g' (rounds + 1)
  in
  go g 0
