(** Per-operation lowerings for operative-kernel extraction (paper §3.1).

    Every behavioural operation is rewritten into unsigned additions plus
    glue logic:

    - signed add / sub keep their bit-level adder but become explicitly
      unsigned additions over sign-extended operands;
    - [a - b] becomes [a + not b + 1] (the inverter is glue);
    - an unsigned m×n multiplication becomes an array of [Gate]
      partial-product rows accumulated by n-1 chained additions — exactly
      the ripple structure whose bit-level parallelism the fragmentation
      phase exploits;
    - a two's-complement m×n multiplication uses the paper's Baugh & Wooley
      variant: one unsigned (m-1)×(n-1) multiplication over the magnitude
      bits plus dedicated additions folding in the two sign-row correction
      terms;
    - comparisons become a borrow ripple: one addition computing
      [a + not b + 1] whose top bit (or its complement) is the verdict;
    - max/min become a comparison plus a [Mux] (routing glue). *)

open Hls_dfg.Types
module B = Hls_dfg.Builder
module Operand = Hls_dfg.Operand
module Bv = Hls_bitvec
module Decimal = Hls_util.Decimal

type ctx = Hls_dfg.Rewrite.ctx = {
  b : B.t;
  map : operand array;
}

let map_operand = Hls_dfg.Rewrite.map_operand

let zeros k = Operand.of_const (Bv.zero k)

(** Left-shift as glue: place [k] constant zeros below [o]. *)
let shifted ctx ?(label = "") o k =
  if k = 0 then o
  else
    B.node ctx.b Concat ~label
      ~width:(Operand.width o + k)
      [ zeros k; o ]

(** Truncate or zero-extend an operand to exactly [width] via glue. *)
let fit ctx o ~width =
  let w = Operand.width o in
  if w = width then o
  else if w > width then Operand.reslice o ~hi:(width - 1) ~lo:0
  else B.node ctx.b Wire ~width [ o ]

(** [a + not b + 1] at [width] bits.  When [width > max(wa, wb)] the top
    bits expose the carry/borrow information. *)
let add_complement ctx ?(label = "") ~width a b =
  let nb = B.node ctx.b Not ~width [ b ] in
  B.node ctx.b Add ~label ~width [ { a with ext = a.ext }; nb; Operand.one ]

let lower_sub ctx ?(label = "") ~width a b = add_complement ctx ~label ~width a b

let lower_neg ctx ?(label = "") ~width a =
  let na = B.node ctx.b Not ~width [ a ] in
  B.node ctx.b Add ~label ~width [ na; zeros width; Operand.one ]

(** Unsigned array multiplier: rows of [Gate] glue accumulated by chained
    additions.  Returns an operand of width [wa + wb]. *)
let array_multiply ctx ?(label = "mul") a b =
  let wa = Operand.width a and wb = Operand.width b in
  let row i =
    let bit_i = Operand.reslice b ~hi:i ~lo:i in
    B.node ctx.b Gate ~width:wa
      ~label:(Decimal.suffixed label ".pp" i)
      [ a; bit_i ]
  in
  if wb = 1 then
    (* Single row: the product is just the gated multiplicand. *)
    row 0
  else begin
    (* Stage i adds row i to the upper bits of the running sum; the low bit
       of each stage is a settled product bit. *)
    let low_bits = ref [] in
    let running = ref (row 0) in
    for i = 1 to wb - 1 do
      let r = row i in
      let prev = !running in
      let prev_w = Operand.width prev in
      low_bits := Operand.reslice prev ~hi:0 ~lo:0 :: !low_bits;
      let upper =
        (* A 1-bit multiplicand leaves no running upper bits. *)
        if prev_w > 1 then Operand.reslice prev ~hi:(prev_w - 1) ~lo:1
        else zeros 1
      in
      running :=
        B.node ctx.b Add ~width:(wa + 1)
          ~label:(Decimal.suffixed label ".s" i)
          [ upper; r ]
    done;
    let pieces = List.rev (!running :: !low_bits) in
    B.node ctx.b Concat ~width:(wa + wb) ~label:(label ^ ".cat") pieces
  end

(** Multiplication by a constant: a canonical-signed-digit shift-add
    network — Σ ±(var << pos) over the nonzero CSD digits of the constant,
    computed modularly at the product width.  This is how filter
    coefficients multiply in any synthesis flow, and it is what keeps the
    paper's "+34 % operations" figure small: a typical coefficient costs
    two or three additions, not a full multiplier array. *)
let csd_multiply ctx ?(label = "cmul") ~signedness ~width var c =
  if c = 0 then zeros width
  else begin
    let ext = match signedness with Signed -> Sext | Unsigned -> Zext in
    let term pos =
      let o = { var with ext } in
      if pos = 0 then o
      else
        { (shifted ctx ~label:(Decimal.suffixed label ".t" pos) o pos)
          with ext }
    in
    match Hls_util.Csd.digits c with
    | [] -> zeros width
    | (p0, neg0) :: rest ->
        let first =
          if neg0 then lower_neg ctx ~label:(label ^ ".n0") ~width (term p0)
          else term p0
        in
        let acc, _ =
          List.fold_left
            (fun (acc, k) (pos, neg) ->
              let t = term pos in
              let next =
                if neg then
                  lower_sub ctx ~label:(Decimal.suffixed label ".s" k)
                    ~width acc t
                else
                  B.node ctx.b Add ~width
                    ~label:(Decimal.suffixed label ".s" k)
                    [ acc; t ]
              in
              (next, k + 1))
            (first, 1) rest
        in
        acc
  end

(** Baugh & Wooley variant (paper §3.1): a two's-complement m×n product
    from one unsigned (m-1)×(n-1) multiplication and sign-correction
    additions.

    With A' and B' the unsigned magnitude fields (low m-1 / n-1 bits) and
    s_a, s_b the sign bits:

      a·b = A'·B'
            + 2^(n-1) · s_b · (-A')   (an m-bit addition: not A' + 1)
            + 2^(m-1) · s_a · (-B' + s_b·2^(n-1))
                                      (an (n+1)-bit addition)

    The final accumulation reuses the multiplier's addition array. *)
let baugh_wooley ctx ?(label = "smul") a b =
  let wa = Operand.width a and wb = Operand.width b in
  if wa = 1 || wb = 1 then begin
    (* Degenerate: a 1-bit two's-complement factor is 0 or -1, so the
       product is the gated negation of the other factor. *)
    let wide, bit = if wa = 1 then (b, a) else (a, b) in
    let width = wa + wb in
    let sext_wide = B.node ctx.b Wire ~width [ { wide with ext = Sext } ] in
    let neg = lower_neg ctx ~label:(label ^ ".neg") ~width sext_wide in
    B.node ctx.b Gate ~width ~label:(label ^ ".sel") [ neg; bit ]
  end
  else begin
    let m = wa and n = wb in
    let mag_a = { (Operand.reslice a ~hi:(m - 2) ~lo:0) with ext = Zext } in
    let mag_b = { (Operand.reslice b ~hi:(n - 2) ~lo:0) with ext = Zext } in
    let sign_a = Operand.reslice a ~hi:(m - 1) ~lo:(m - 1) in
    let sign_b = Operand.reslice b ~hi:(n - 1) ~lo:(n - 1) in
    (* Core: unsigned (m-1)x(n-1) product. *)
    let core = array_multiply ctx ~label:(label ^ ".core") mag_a mag_b in
    (* t_a = s_b ? -A' : 0 at m bits: -A' mod 2^m = not(zext_m A') + 1. *)
    let not_a = B.node ctx.b Not ~width:m ~label:(label ^ ".na") [ mag_a ] in
    let gated_na =
      B.node ctx.b Gate ~width:m ~label:(label ^ ".gna") [ not_a; sign_b ]
    in
    let t_a =
      B.node ctx.b Add ~width:m
        ~label:(label ^ ".ta")
        [ gated_na; zeros m; sign_b ]
    in
    (* t_b = s_a ? (-B' + s_b·2^(n-1)) : 0, an (n+1)-bit addition;
       -B' mod 2^(n+1) = not(zext B') + 1 at n+1 bits. *)
    let not_b =
      B.node ctx.b Not ~width:(n + 1) ~label:(label ^ ".nb") [ mag_b ]
    in
    let msb_term = shifted ctx sign_b (n - 1) in
    let gated_nb =
      B.node ctx.b Gate ~width:(n + 1) ~label:(label ^ ".gnb")
        [ not_b; sign_a ]
    in
    let gated_msb =
      B.node ctx.b Gate ~width:(n + 1) ~label:(label ^ ".gmsb")
        [ msb_term; sign_a ]
    in
    let t_b =
      B.node ctx.b Add ~width:(n + 1)
        ~label:(label ^ ".tb")
        [ gated_nb; gated_msb; sign_a ]
    in
    (* Accumulate: core + t_a·2^(n-1) + t_b·2^(m-1), all mod 2^(m+n).
       The sign-correction terms are negative numbers truncated to their
       field width, so they must be *sign-extended* into the final sum. *)
    let width = m + n in
    let shift_a = shifted ctx { t_a with ext = Sext } (n - 1) in
    let shift_b = shifted ctx { t_b with ext = Sext } (m - 1) in
    let acc1 =
      B.node ctx.b Add ~width
        ~label:(label ^ ".acc1")
        [ core; { shift_a with ext = Sext } ]
    in
    B.node ctx.b Add ~width
      ~label:(label ^ ".acc2")
      [ acc1; { shift_b with ext = Sext } ]
  end

(** Comparison verdict bits from one borrow-ripple addition.

    Unsigned: [a < b] = not carry-out of [a + not b + 1] at width w+1.
    Signed: sign-extend both to w+1; the sign bit of the difference is the
    verdict directly. *)
(* Comparisons honour each operand's *own* extension mode (matching the
   simulator, which widens both operands to a common width before
   comparing); the node's signedness only decides how the widened bit
   patterns are interpreted.  [cmp_width] is that common width. *)
let cmp_width a b = max (Operand.width a) (Operand.width b) + 1

let lower_lt ctx ?(label = "lt") ~signedness a b =
  let w = cmp_width a b in
  match signedness with
  | Unsigned ->
      (* a + not_w(b) + 1 = a - b + 2^w: the carry at bit w is "no
         borrow", i.e. a >= b.  Materialize a's w-bit pattern first so the
         widening into the carry column is a plain zero-extension even for
         sign-extending operands. *)
      let pa = B.node ctx.b Wire ~width:w ~label:(label ^ ".pa") [ a ] in
      let nb = B.node ctx.b Not ~width:w ~label:(label ^ ".nb") [ b ] in
      let diff =
        B.node ctx.b Add ~width:(w + 1)
          ~label:(label ^ ".diff")
          [ pa; nb; Operand.one ]
      in
      let carry = Operand.reslice diff ~hi:w ~lo:w in
      B.node ctx.b Not ~width:1 ~label:(label ^ ".borrow") [ carry ]
  | Signed ->
      (* One widening step beyond the comparison width makes the
         subtraction overflow-free, so the sign bit is the verdict.  Both
         operands extend per their own mode; a zero-extended pattern is
         non-negative at width w, so its further sign extension to w+1 is
         still its value. *)
      let nb = B.node ctx.b Not ~width:(w + 1) ~label:(label ^ ".nb") [ b ] in
      let diff =
        B.node ctx.b Add ~width:(w + 1)
          ~label:(label ^ ".diff")
          [ a; nb; Operand.one ]
      in
      Operand.reslice diff ~hi:w ~lo:w

let lower_eq ctx ?(label = "eq") ~signedness:_ a b =
  let w = cmp_width a b in
  let diff = add_complement ctx ~label:(label ^ ".diff") ~width:w a b in
  let any = B.node ctx.b Reduce_or ~width:1 ~label:(label ^ ".any") [ diff ] in
  B.node ctx.b Not ~width:1 ~label:(label ^ ".z") [ any ]

let not1 ctx ?(label = "") o = B.node ctx.b Not ~width:1 ~label [ o ]

(** Lower one behavioural node; returns the operand carrying its value at
    the node's declared width. *)
let lower_node ctx (n : node) =
  let o i = map_operand ctx (List.nth n.operands i) in
  let label = if n.label = "" then Printf.sprintf "n%d" n.id else n.label in
  let value =
    match n.kind with
    | Add ->
        let ops = List.map (map_operand ctx) n.operands in
        B.node ctx.b Add ~label ~width:n.width ops
    | Sub -> lower_sub ctx ~label ~width:n.width (o 0) (o 1)
    | Neg -> lower_neg ctx ~label ~width:n.width (o 0)
    | Mul ->
        let a = o 0 and c = o 1 in
        let const_of = Operand.const_int ~signedness:n.signedness in
        let product =
          match (const_of a, const_of c) with
          | Some va, Some vc ->
              (* Fully constant product: fold it. *)
              let w = Operand.width a + Operand.width c in
              Operand.of_const (Bv.of_int ~width:w (va * vc))
          | Some v, None -> csd_multiply ctx ~label ~signedness:n.signedness
                              ~width:n.width c v
          | None, Some v -> csd_multiply ctx ~label ~signedness:n.signedness
                              ~width:n.width a v
          | None, None -> (
              match n.signedness with
              | Unsigned -> array_multiply ctx ~label a c
              | Signed -> baugh_wooley ctx ~label a c)
        in
        let pw = Operand.width product in
        if pw = n.width then product
        else if pw > n.width then Operand.reslice product ~hi:(n.width - 1) ~lo:0
        else
          B.node ctx.b Wire ~width:n.width
            [
              (match n.signedness with
              | Signed -> { product with ext = Sext }
              | Unsigned -> product);
            ]
    | Lt -> lower_lt ctx ~label ~signedness:n.signedness (o 0) (o 1)
    | Gt -> lower_lt ctx ~label ~signedness:n.signedness (o 1) (o 0)
    | Ge ->
        not1 ctx ~label
          (lower_lt ctx ~label:(label ^ ".lt") ~signedness:n.signedness (o 0)
             (o 1))
    | Le ->
        not1 ctx ~label
          (lower_lt ctx ~label:(label ^ ".gt") ~signedness:n.signedness (o 1)
             (o 0))
    | Eq -> lower_eq ctx ~label ~signedness:n.signedness (o 0) (o 1)
    | Neq ->
        not1 ctx ~label
          (lower_eq ctx ~label:(label ^ ".eq") ~signedness:n.signedness (o 0)
             (o 1))
    | Max | Min ->
        let a = o 0 and b = o 1 in
        let lt =
          lower_lt ctx ~label:(label ^ ".cmp") ~signedness:n.signedness a b
        in
        let t, f =
          match n.kind with Max -> (b, a) | _ -> (a, b)
        in
        B.node ctx.b Mux ~label ~width:n.width [ lt; t; f ]
    | Not | And | Or | Xor | Gate | Mux | Concat | Reduce_or | Wire ->
        (* Already glue: copy with remapped operands. *)
        B.node ctx.b n.kind ~label ~width:n.width ~signedness:n.signedness
          (List.map (map_operand ctx) n.operands)
  in
  fit ctx value ~width:n.width
