(* Strength reduction: multiplication by a constant becomes a balanced
   shift/add-subtract network over the constant's canonical signed-digit
   (CSD) recoding.

   The kernel extractor already CSD-lowers constant multipliers, but as a
   *linear* fold chain whose additive depth grows with the digit count;
   rewriting before extraction lets us build a balanced tree instead, so
   the critical delta-path the bitnet sees is logarithmic in the digit
   count.  (The paper's IR has no division or modulo kinds, so the
   classic divide/mod-by-power-of-two reductions have no target here —
   see docs/TRANSFORMATIONS.md.)

   Soundness: [Mul] multiplies the *raw* operand bits, interpreted per
   the node's signedness, and truncates (or extends) the product to the
   node width [w] — every reading agrees with exact integer arithmetic
   modulo 2^w.  With [c = Sum of +/- 2^k] over the CSD digits,

     x * c  =  Sum of +/- (x * 2^k)   (mod 2^w)

   and each term is the w-bit value of x shifted left by k, which is
   exactly [Concat (zeros k, x[0 .. w-k-1])].  Adds, subs and negations
   at width [w] with width-[w] operands are also mod-2^w arithmetic, so
   the network computes the same w-bit result for every input. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module B = Hls_dfg.Builder
module Rewrite = Hls_dfg.Rewrite
module Bv = Hls_bitvec
module Csd = Hls_util.Csd

(* The integer factor a truncating Mul sees in a constant operand: the
   selected bits, read per the node's signedness.  None when the operand
   is not a constant or too wide for an OCaml int. *)
let factor ~signedness (o : operand) =
  match o.src with
  | Const bv when o.hi - o.lo + 1 <= 62 ->
      let bits = Bv.slice bv ~hi:o.hi ~lo:o.lo in
      Some
        (match signedness with
        | Signed -> Bv.to_signed_int bits
        | Unsigned -> Bv.to_int bits)
  | _ -> None

(* x as a width-[w] operand, extended per the node's signedness (Mul
   reads raw bits under the node's signedness, so the operand's own
   extension mode is deliberately ignored). *)
let widened ctx ~signedness (o : operand) w =
  let ow = Operand.width o in
  if ow = w then o
  else if ow > w then Operand.reslice o ~hi:(w - 1) ~lo:0
  else
    let ext = match signedness with Signed -> Sext | Unsigned -> Zext in
    B.node ctx.Rewrite.b Wire ~width:w [ { o with ext } ]

(* (x << k) mod 2^w, over a width-[w] operand. *)
let shifted ctx xw k w =
  if k = 0 then xw
  else if k >= w then Operand.of_const (Bv.zero w)
  else
    B.node ctx.Rewrite.b Concat ~width:w
      [
        Operand.of_const (Bv.zero k);
        Operand.reslice xw ~hi:(w - k - 1) ~lo:0;
      ]

(* Balanced pairwise reduction of width-[w] terms under Add. *)
let rec reduce ctx w = function
  | [] -> Operand.of_const (Bv.zero w)
  | [ t ] -> t
  | terms ->
      let rec pair = function
        | a :: b :: rest -> B.node ctx.Rewrite.b Add ~width:w [ a; b ] :: pair rest
        | rest -> rest
      in
      reduce ctx w (pair terms)

let network ctx (n : node) xo c =
  let w = n.width in
  let finish kind operands =
    B.node ctx.Rewrite.b kind ~width:w ~signedness:n.signedness
      ~label:n.label ?origin:n.origin operands
  in
  if c = 0 then Operand.of_const (Bv.zero w)
  else
    let xw = widened ctx ~signedness:n.signedness xo w in
    let digits = Csd.digits c in
    let pos, neg = List.partition (fun (_, negative) -> not negative) digits in
    let terms ds = List.map (fun (k, _) -> shifted ctx xw k w) ds in
    match (reduce ctx w (terms pos), neg) with
    | p, [] -> finish Wire [ p ]
    | p, neg -> (
        match (pos, reduce ctx w (terms neg)) with
        | [], m -> finish Neg [ m ]
        | _, m -> finish Sub [ p; m ])

let run g =
  let sites = ref [] in
  let graph =
    Rewrite.run g ~f:(fun ctx n ->
        match (n.kind, n.operands) with
        | Mul, [ a; b ] -> (
            let fa = factor ~signedness:n.signedness a
            and fb = factor ~signedness:n.signedness b in
            match (fa, fb) with
            | Some _, Some _ ->
                (* Both constant: folding's job, not ours. *)
                Rewrite.copy ctx n
            | Some c, None | None, Some c ->
                let xo =
                  Rewrite.map_operand ctx (if fa = None then a else b)
                in
                sites :=
                  {
                    Plan.at = n.id;
                    note =
                      Printf.sprintf "mul by %d -> %d-digit csd network" c
                        (Csd.digit_count c);
                  }
                  :: !sites;
                network ctx n xo c
            | None, None -> Rewrite.copy ctx n)
        | _ -> Rewrite.copy ctx n)
  in
  { Pass.graph; sites = List.rev !sites }
