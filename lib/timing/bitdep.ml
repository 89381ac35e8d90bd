(** Per-bit dependency and delay model.

    The paper measures all delays in δ — the delay of one chained 1-bit
    addition — and ignores non-additive glue (§3.2: "non-additive operations
    are not considered").  This module assigns to every result bit of every
    node a *cost* in δ and the set of bits it depends on:

    - an [Add] bit at a position covered by at least one operand bit costs
      1 δ and depends on the operand bits at that position plus the previous
      result bit (the carry);
    - an [Add] bit above all operand positions is pure carry propagation: it
      costs 0 δ and depends only on the previous result bit (the carry-out
      of a ripple adder settles together with the top sum bit);
    - glue logic ([Not], [And], [Gate], [Mux], [Concat], …) costs 0 δ and
      simply forwards its operands' arrival times;
    - pre-kernel behavioural kinds ([Sub], [Mul], comparisons, [Max]/[Min])
      get conservative additive models so that timing is still defined on
      raw specifications, although the flow normally runs timing after
      kernel extraction when only additions and glue remain. *)

open Hls_dfg.Types
module Operand = Hls_dfg.Operand
module Graph = Hls_dfg.Graph

(** A dependency of one result bit. *)
type dep =
  | Self of int  (** earlier bit of the same node (carry chain) *)
  | Bit of source * int  (** bit [i] of an operand source *)

(** [operand_bit o pos] resolves which source bit feeds position [pos] of a
    computation using operand [o], honouring the operand's extension:
    [None] for zero-extension padding (a constant 0, no dependency). *)
let operand_bit (o : operand) pos =
  if pos < Operand.width o then Some (Bit (o.src, o.lo + pos))
  else match o.ext with Zext -> None | Sext -> Some (Bit (o.src, o.hi))

let all_operand_bits (o : operand) =
  List.map (fun i -> Bit (o.src, o.lo + i))
    (Hls_util.List_ext.range 0 (Operand.width o))

let carry_dep pos = if pos > 0 then [ Self (pos - 1) ] else []

(* Positions covered by real operand bits of a 2/3-operand additive node;
   above them the result is pure carry ripple. *)
let additive_cover operands =
  List.fold_left
    (fun acc (o : operand) ->
      match o.ext with
      | Sext -> max_int (* sign extension keeps feeding bits upward *)
      | Zext -> max acc (Operand.width o))
    0 operands

(** [bit_deps graph node pos] returns [(cost_delta, deps)] for result bit
    [pos] of [node]. *)
let bit_deps _graph (n : node) pos =
  let ops = Array.of_list n.operands in
  let op i = ops.(i) in
  let two_op_adder ~extra_lsb_dep operands =
    let cover = additive_cover operands in
    if pos < cover then
      let deps =
        List.filter_map (fun o -> operand_bit o pos) operands
        @ carry_dep pos
        @ (if pos = 0 then extra_lsb_dep else [])
      in
      (1, deps)
    else (0, carry_dep pos)
  in
  match n.kind with
  | Add ->
      let a_b, cin =
        match n.operands with
        | [ a; b ] -> ([ a; b ], [])
        | [ a; b; c ] -> ([ a; b ], [ Bit (c.src, c.lo) ])
        | _ -> invalid_arg "Bitdep: malformed add"
      in
      two_op_adder ~extra_lsb_dep:cin a_b
  | Sub | Neg ->
      (* a - b ripples exactly like a + not b + 1; the inverter is glue. *)
      two_op_adder ~extra_lsb_dep:[] n.operands
  | Mul ->
      (* Array-multiplier model: bit [pos] sees every input bit at positions
         <= pos and ripples off the previous product bit, 1 δ per bit. *)
      let deps =
        List.concat_map
          (fun o ->
            List.filter_map
              (fun p -> operand_bit o p)
              (Hls_util.List_ext.range 0 (min (pos + 1) (Operand.width o))))
          n.operands
        @ carry_dep pos
      in
      (1, Hls_util.List_ext.dedup ~eq:( = ) deps)
  | Lt | Le | Gt | Ge | Eq | Neq ->
      (* One full borrow ripple across the widest operand. *)
      let w =
        List.fold_left (fun acc o -> max acc (Operand.width o)) 1 n.operands
      in
      (w, List.concat_map all_operand_bits n.operands)
  | Max | Min ->
      (* Compare (full ripple) then steer: every result bit waits for the
         comparison plus its own operand bits. *)
      let w =
        List.fold_left (fun acc o -> max acc (Operand.width o)) 1 n.operands
      in
      let steer = List.filter_map (fun o -> operand_bit o pos) n.operands in
      (w, List.concat_map all_operand_bits n.operands @ steer)
  | Not | Wire -> (0, Option.to_list (operand_bit (op 0) pos))
  | And | Or | Xor ->
      (0, List.filter_map (fun o -> operand_bit o pos) n.operands)
  | Gate ->
      let ctrl = op 1 in
      ( 0,
        Option.to_list (operand_bit (op 0) pos) @ [ Bit (ctrl.src, ctrl.lo) ]
      )
  | Mux ->
      let c = op 0 in
      ( 0,
        Bit (c.src, c.lo)
        :: (Option.to_list (operand_bit (op 1) pos)
           @ Option.to_list (operand_bit (op 2) pos)) )
  | Concat ->
      let rec find offset = function
        | [] -> []
        | o :: tl ->
            let w = Operand.width o in
            if pos < offset + w then [ Bit (o.src, o.lo + (pos - offset)) ]
            else find (offset + w) tl
      in
      (0, find 0 n.operands)
  | Reduce_or -> (0, all_operand_bits (op 0))
