(** Helpers over {!Types.operand} values. *)

open Types
module Decimal = Hls_util.Decimal

(** Width of the selected bit range. *)
let width (o : operand) = o.hi - o.lo + 1

let make ?(ext = Zext) src ~hi ~lo =
  if lo < 0 || hi < lo then invalid_arg "Operand.make: bad bit range";
  { src; hi; lo; ext }

(** Full-range operand over a node's result. *)
let of_node ?(ext = Zext) (n : node) =
  { src = Node n.id; hi = n.width - 1; lo = 0; ext }

let of_const ?(ext = Zext) bv =
  { src = Const bv; hi = Hls_bitvec.width bv - 1; lo = 0; ext }

let of_input ?(ext = Zext) (p : port) =
  { src = Input p.port_name; hi = p.port_width - 1; lo = 0; ext }

(** [reslice o ~hi ~lo] selects bits [lo..hi] *of the operand's own range*
    (i.e. relative to [o.lo]). *)
let reslice (o : operand) ~hi ~lo =
  if lo < 0 || hi < lo || o.lo + hi > o.hi then
    invalid_arg "Operand.reslice: bad bit range";
  { o with hi = o.lo + hi; lo = o.lo + lo }

(** Constant-one 1-bit operand, used as carry-in. *)
let one = of_const (Hls_bitvec.ones 1)

(** Constant-zero 1-bit operand. *)
let zero_bit = of_const (Hls_bitvec.zero 1)

let equal (a : operand) (b : operand) =
  a.hi = b.hi && a.lo = b.lo && a.ext = b.ext
  &&
  match (a.src, b.src) with
  | Input x, Input y -> String.equal x y
  | Node x, Node y -> x = y
  | Const x, Const y -> Hls_bitvec.equal x y
  | (Input _ | Node _ | Const _), _ -> false

(** Appends [o] as [<source>[hi:lo]], with an [s] suffix when it
    sign-extends: an input by name, a node as [n<id>], a constant through
    {!Hls_bitvec.add_to_buffer}. *)
let add_to_buffer buf (o : operand) =
  (match o.src with
  | Input s -> Buffer.add_string buf s
  | Node id ->
      Buffer.add_char buf 'n';
      Decimal.add_int buf id
  | Const bv -> Hls_bitvec.add_to_buffer buf bv);
  Buffer.add_char buf '[';
  Decimal.add_int buf o.hi;
  Buffer.add_char buf ':';
  Decimal.add_int buf o.lo;
  Buffer.add_string buf (match o.ext with Zext -> "]" | Sext -> "]s")

let pp ppf o =
  let buf = Buffer.create 32 in
  add_to_buffer buf o;
  Format.pp_print_string ppf (Buffer.contents buf)

(** Integer value of a constant operand (its selected bits), interpreted
    per [signedness]; [None] for non-constant sources. *)
let const_int ~signedness (o : operand) =
  match o.src with
  | Const bv ->
      let bits = Hls_bitvec.slice bv ~hi:o.hi ~lo:o.lo in
      Some
        (match signedness with
        | Unsigned -> Hls_bitvec.to_int bits
        | Signed -> Hls_bitvec.to_signed_int bits)
  | Input _ | Node _ -> None
