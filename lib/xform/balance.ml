(* Tree-height reduction: chains of two-operand additions (or
   multiplications) at one width are reassociated into depth-balanced
   trees, shortening the critical delta-path the bitnet sees.

   A chain interior is absorbable into its parent when it computes the
   same kind at the same width and signedness, is read full-range, and
   has exactly one consumer (no output port) — then the whole chain is a
   single k-leaf reduction.  Truncating Add and Mul at a fixed width w
   are associative and commutative modulo 2^w, and the leaves keep their
   own operand records (range and extension mode), so any reassociation
   computes the same w-bit values.

   The rebuild is depth-aware rather than shape-balanced: leaves combine
   shallowest-first (a Huffman-style reduction over behavioural depth),
   so a deep subgraph feeding the chain is paired late and the root depth
   is minimized — this is also what rebalances the fanout of early
   chain stages.  Absorbed interiors become dead in the rebuilt graph
   and are dropped before returning. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module B = Hls_dfg.Builder
module Rewrite = Hls_dfg.Rewrite

let chain_kind = function Add | Mul -> true | _ -> false

(* A two-operand Add/Mul node: a potential chain member. *)
let member (n : node) = chain_kind n.kind && List.length n.operands = 2

let run g =
  let nc = Graph.node_count g in
  let index = Graph.index g in
  let fanout id =
    List.length index.Graph.uses.(id) + List.length index.Graph.out_uses.(id)
  in
  (* Mark interiors: absorbed.(m) is set when m's unique consumer reads
     it full-range as the same kind/width/signedness chain member. *)
  let absorbed = Array.make (max 1 nc) false in
  Graph.iter_nodes
    (fun n ->
      if member n then
        List.iter
          (fun (o : operand) ->
            match o.src with
            | Node mid ->
                let m = Graph.node g mid in
                if
                  member m && m.kind = n.kind && m.width = n.width
                  && m.signedness = n.signedness
                  && fanout mid = 1 && o.lo = 0
                  && o.hi = m.width - 1
                then absorbed.(mid) <- true
            | Input _ | Const _ -> ())
          n.operands)
    g;
  (* Leaves of the chain rooted at n, left to right. *)
  let rec leaves (n : node) acc =
    List.fold_left
      (fun acc (o : operand) ->
        match o.src with
        | Node mid when absorbed.(mid) -> leaves (Graph.node g mid) acc
        | _ -> o :: acc)
      acc n.operands
  in
  let depths = Plan.node_depths g in
  let operand_depth (o : operand) =
    match o.src with Node id -> depths.(id) | _ -> 0
  in
  (* Root depth after a Huffman reduction over these leaf depths: the
     depth the rebuild below will actually produce. *)
  let predicted_depth ls =
    let rec reduce = function
      | [] | [ _ ] -> assert false
      | [ a; b ] -> 1 + max a b
      | a :: b :: rest -> reduce (List.sort compare ((1 + max a b) :: rest))
    in
    reduce (List.sort compare (List.map operand_depth ls))
  in
  let sites = ref [] in
  let graph =
    Rewrite.run g ~f:(fun ctx n ->
        let ls = if member n && not absorbed.(n.id) then leaves n [] else [] in
        (* Rebuild only chains the reduction strictly shallows: an
           already-balanced chain is left byte-identical, so the pass is
           idempotent and repeat(...) recipes converge instead of
           ping-ponging with canon until the round cap. *)
        if List.length ls < 3 || predicted_depth ls >= depths.(n.id) then
          Rewrite.copy ctx n
        else begin
          let ls = List.rev ls in
          (* Huffman-style reduction: always combine the two shallowest
             terms; the final combine keeps the root's label/origin. *)
          let rec build terms =
            match
              List.stable_sort (fun (_, da) (_, db) -> compare da db) terms
            with
            | [] | [ _ ] -> assert false
            | [ (a, _); (b, _) ] ->
                B.node ctx.Rewrite.b n.kind ~width:n.width
                  ~signedness:n.signedness ~label:n.label ?origin:n.origin
                  [ a; b ]
            | (a, da) :: (b, db) :: rest ->
                let o =
                  B.node ctx.Rewrite.b n.kind ~width:n.width
                    ~signedness:n.signedness [ a; b ]
                in
                build ((o, 1 + max da db) :: rest)
          in
          let chain_depth =
            List.fold_left (fun acc t -> max acc (operand_depth t)) 0 ls
            + List.length ls - 1
          in
          let balanced_bound =
            (* depth after balancing is at most ceil(log2 k) above the
               deepest leaf; report the intent, the plan records the
               measured effect *)
            let rec lg n acc = if n <= 1 then acc else lg ((n + 1) / 2) (acc + 1) in
            List.fold_left (fun acc t -> max acc (operand_depth t)) 0 ls
            + lg (List.length ls) 0
          in
          sites :=
            {
              Plan.at = n.id;
              note =
                Printf.sprintf "%d-leaf %s chain rebalanced (depth <= %d, was %d)"
                  (List.length ls)
                  (kind_to_string n.kind)
                  balanced_bound chain_depth;
            }
            :: !sites;
          build
            (List.map
               (fun o -> (Rewrite.map_operand ctx o, operand_depth o))
               ls)
        end)
  in
  (* The absorbed interiors were copied (nothing references the copies);
     drop them here so the plan reflects the real node-count effect. *)
  let graph = if !sites = [] then graph else Rewrite.prune graph in
  { Pass.graph; sites = List.rev !sites }
