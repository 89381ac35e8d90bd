(* Operand canonicalization: order the operands of commutative operations
   under a stable structural key and elide identity wires.  Value-neutral
   on its own, but it turns [a+b] and [b+a] into the same shape, so CSE
   downstream shares what it previously missed.

   Soundness notes: every operand carries its own extension mode, so
   swapping the operand list of a commutative operation swaps which value
   each slot contributes, not how either value is read.  A [Wire] whose
   operand already has the node's width is the identity (the simulator
   extends to the node width, which is a no-op), so consumers can read
   the source range directly. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module B = Hls_dfg.Builder
module Rewrite = Hls_dfg.Rewrite

(* Kinds whose operands may be reordered freely.  [Add] is handled
   separately because a third operand is a carry-in that must stay put;
   [Sub], [Gate], [Mux] and [Concat] are position-sensitive. *)
let commutative = function
  | Mul | And | Or | Xor | Eq | Neq | Max | Min -> true
  | _ -> false

let src_key = function
  | Input name -> (0, name, 0)
  | Node id -> (1, "", id)
  | Const bv -> (2, Hls_bitvec.to_string bv, 0)

(* Stable total order over operands of the rewritten graph: constants
   sort last (so [x + 1] keeps the variable first, the usual convention),
   inputs before nodes, then the selected range and extension mode. *)
let key (o : operand) = (src_key o.src, o.lo, o.hi, o.ext = Sext)

let sort_operands = List.sort (fun a b -> compare (key a) (key b))

let run g =
  let sites = ref [] in
  let site at note = sites := { Plan.at; note } :: !sites in
  let graph =
    Rewrite.run g ~f:(fun ctx n ->
        let mapped () = List.map (Rewrite.map_operand ctx) n.operands in
        let rebuild operands =
          B.node ctx.b n.kind ~width:n.width ~signedness:n.signedness
            ~label:n.label ?origin:n.origin operands
        in
        match (n.kind, n.operands) with
        | Wire, [ o ] when Operand.width o = n.width ->
            site n.id "identity wire elided";
            Rewrite.map_operand ctx o
        | Add, ([ _; _ ] | [ _; _; _ ]) ->
            let sortable, cin =
              match mapped () with
              | [ a; b ] -> ([ a; b ], [])
              | [ a; b; c ] -> ([ a; b ], [ c ])
              | _ -> assert false
            in
            let sorted = sort_operands sortable in
            if sorted <> sortable then site n.id "addends ordered";
            rebuild (sorted @ cin)
        | k, _ when commutative k ->
            let operands = mapped () in
            let sorted = sort_operands operands in
            if sorted <> operands then
              site n.id
                (Printf.sprintf "%s operands ordered" (kind_to_string k));
            rebuild sorted
        | _ -> Rewrite.copy ctx n)
  in
  { Pass.graph; sites = List.rev !sites }
