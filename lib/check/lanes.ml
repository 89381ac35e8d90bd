(* Bit-sliced evaluation of a DFG: one walk of the graph evaluates up to
   [width] (63) input vectors at once.

   A value [w] bits wide is an [int array] of [w] words, one per bit; bit
   [l] of word [i] is bit [i] of the value under input vector [l] (lane
   [l]).  Bitwise logic is then one machine operation per bit for every
   lane, an adder is a word-wide ripple chain, and a mux is a word mux.

   The semantics are exactly {!Hls_sim}'s, operation by operation, so a
   lane of the result is bit-identical to [Hls_sim.run] on that lane's
   vector.  Lanes above the batch size hold garbage; callers mask them.

   Values are short-lived: one array per node per batch, dropped when the
   batch ends.  Nothing compiles the graph into a stored gate program —
   [prepare] only resolves operand sources, which costs one small record
   per operand. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Bv = Hls_bitvec

(* Lanes per word: every bit of an OCaml int. *)
let width = Sys.int_size

(* The mask of the first [n] lanes. *)
let mask n = if n >= width then -1 else (1 lsl n) - 1

type source = Port of int | Node of int | Const of int array

(* An operand with its source resolved: input ports become slots of the
   batch's input words, constants become all-lanes words. *)
type operand = { src : source; lo : int; len : int; sext : bool }

type node = {
  kind : kind;
  signed : bool;
  n_width : int;
  ops : operand array;
}

type t = { nodes : node array; outputs : operand array }

(* Resolve [g]'s operands.  [slot name] is the input word index and width
   of port [name].  Like [Hls_sim.run], an operand naming an input the
   vectors do not carry, or one whose width differs from [g]'s
   declaration, raises [Invalid_argument]; so does a bit range outside
   its source, or a node read before it is computed, which is what makes
   the unchecked reads of [bit] safe. *)
let prepare g ~slot =
  let widths = Array.make (Array.length g.Graph.nodes) 0 in
  let resolve ~before (o : Hls_dfg.Types.operand) =
    let src, src_width =
      match o.src with
      | Input name -> (
          match slot name with
          | None ->
              invalid_arg
                (Printf.sprintf "Hls_sim: missing value for input %s" name)
          | Some (k, w) ->
              let p = Graph.input_exn g name in
              if w <> p.port_width then
                invalid_arg
                  (Printf.sprintf "Hls_sim: input %s has width %d, expected %d"
                     name w p.port_width);
              (Port k, w))
      | Node id ->
          if id < 0 || id >= before then
            invalid_arg (Printf.sprintf "Hls_check: node %d read early" id);
          (Node id, widths.(id))
      | Const bv ->
          let w = Bv.width bv in
          (Const (Array.init w (fun i -> if Bv.get bv i then -1 else 0)), w)
    in
    if o.lo < 0 || o.hi >= src_width || o.hi < o.lo then
      invalid_arg "Hls_bitvec.slice: bad range";
    { src; lo = o.lo; len = o.hi - o.lo + 1; sext = o.ext = Sext }
  in
  let nodes =
    Array.mapi
      (fun id (n : Hls_dfg.Types.node) ->
        let ops = Array.of_list (List.map (resolve ~before:id) n.operands) in
        widths.(id) <-
          (match n.kind with
          | Lt | Le | Gt | Ge | Eq | Neq | Reduce_or -> 1
          | Concat -> Array.fold_left (fun s o -> s + o.len) 0 ops
          | _ -> n.width);
        {
          kind = n.kind;
          signed = n.signedness = Signed;
          n_width = n.width;
          ops;
        })
      g.Graph.nodes
  in
  let before = Array.length nodes in
  let outputs =
    Array.of_list (List.map (fun (_, o) -> resolve ~before o) g.Graph.outputs)
  in
  { nodes; outputs }

(* A resolved operand's bits in one batch: [len] words of [w] from [off],
   extended past [len] by zeros or copies of the top word.  Reading bit
   [i >= len] is the operand's extension, reading only [i < width] of a
   wider operand is its truncation — Hls_sim's [extend] either way. *)
type view = { w : int array; off : int; vlen : int; vsext : bool }

let bit v i =
  if i < v.vlen then Array.unsafe_get v.w (v.off + i)
  else if v.vsext then Array.unsafe_get v.w (v.off + v.vlen - 1)
  else 0

let view inputs values o =
  let w =
    match o.src with
    | Port k -> inputs.(k)
    | Node id -> values.(id)
    | Const c -> c
  in
  { w; off = o.lo; vlen = o.len; vsext = o.sext }

(* [a + (b xor invert) + cin] over [n] bits. *)
let adder n a b ~invert ~cin =
  let r = Array.make n 0 in
  let c = ref cin in
  for i = 0 to n - 1 do
    let x = bit a i and y = bit b i lxor invert in
    let t = x lxor y in
    r.(i) <- t lxor !c;
    c := x land y lor (!c land t)
  done;
  r

(* Hls_sim's [compare2]: both operands extended to one bit past the wider,
   each by its own extension mode, then compared.  Returns the lanes where
   [a >= b] and the lanes where [a = b]. *)
let compare ~signed a b =
  let n = max a.vlen b.vlen + 1 in
  let ge = ref (-1) and diff = ref 0 in
  for i = 0 to n - 1 do
    let x = bit a i and y = bit b i in
    (* flipping both sign bits turns a signed compare into an unsigned one *)
    let x, y = if signed && i = n - 1 then (lnot x, lnot y) else (x, y) in
    let ny = lnot y in
    let t = x lxor ny in
    ge := x land ny lor (!ge land t);
    diff := !diff lor (x lxor y)
  done;
  (!ge, lnot !diff)

(* Full product of the raw operands (two's complement when [signed]),
   truncated to the node width or extended up to it, by shift-and-add
   over the [min width (wa + wb)] result bits that survive. *)
let multiply ~signed n a b =
  let a = { a with vsext = signed } and b = { b with vsext = signed } in
  let m = min n (a.vlen + b.vlen) in
  let acc = Array.make m 0 in
  let rows = if signed then m else min m b.vlen in
  for j = 0 to rows - 1 do
    let bj = bit b j in
    if bj <> 0 then begin
      let c = ref 0 in
      for k = j to m - 1 do
        let x = acc.(k) and y = bit a (k - j) land bj in
        let t = x lxor y in
        acc.(k) <- t lxor !c;
        c := x land y lor (!c land t)
      done
    end
  done;
  if m = n then acc
  else
    Array.init n (fun i ->
        if i < m then acc.(i) else if signed then acc.(m - 1) else 0)

let eval_node inputs values nd =
  let op i = view inputs values nd.ops.(i) in
  let n = nd.n_width in
  let map1 f a = Array.init n (fun i -> f (bit a i)) in
  let map2 f a b = Array.init n (fun i -> f (bit a i) (bit b i)) in
  let select sel a b =
    Array.init n (fun i -> sel land bit a i lor (lnot sel land bit b i))
  in
  match nd.kind with
  | Add ->
      let cin = if Array.length nd.ops = 3 then bit (op 2) 0 else 0 in
      adder n (op 0) (op 1) ~invert:0 ~cin
  | Sub -> adder n (op 0) (op 1) ~invert:(-1) ~cin:(-1)
  | Neg ->
      adder n { w = [||]; off = 0; vlen = 0; vsext = false } (op 0) ~invert:(-1)
        ~cin:(-1)
  | Mul -> multiply ~signed:nd.signed n (op 0) (op 1)
  | Lt | Le | Gt | Ge | Eq | Neq ->
      let ge, eq = compare ~signed:nd.signed (op 0) (op 1) in
      [|
        (match nd.kind with
        | Lt -> lnot ge
        | Le -> lnot ge lor eq
        | Gt -> ge land lnot eq
        | Ge -> ge
        | Eq -> eq
        | _ -> lnot eq);
      |]
  | Max | Min ->
      let a = op 0 and b = op 1 in
      let ge, eq = compare ~signed:nd.signed a b in
      select (if nd.kind = Max then ge else lnot ge lor eq) a b
  | Not -> map1 lnot (op 0)
  | And -> map2 ( land ) (op 0) (op 1)
  | Or -> map2 ( lor ) (op 0) (op 1)
  | Xor -> map2 ( lxor ) (op 0) (op 1)
  | Gate ->
      let sel = bit (op 1) 0 in
      map1 (fun x -> x land sel) (op 0)
  | Mux -> select (bit (op 0) 0) (op 1) (op 2)
  | Concat ->
      let views = Array.map (view inputs values) nd.ops in
      let total = Array.fold_left (fun s v -> s + v.vlen) 0 views in
      let r = Array.make total 0 in
      ignore
        (Array.fold_left
           (fun pos v ->
             Array.blit v.w v.off r pos v.vlen;
             pos + v.vlen)
           0 views);
      r
  | Reduce_or ->
      let a = op 0 in
      let any = ref 0 in
      for i = 0 to a.vlen - 1 do
        any := !any lor bit a i
      done;
      [| !any |]
  | Wire -> map1 Fun.id (op 0)

(* Evaluate [t] on one batch: [inputs.(k)] are the words of input slot
   [k].  Returns the output views, in the graph's output order. *)
let run t inputs =
  let values = Array.make (Array.length t.nodes) [||] in
  Array.iteri (fun id nd -> values.(id) <- eval_node inputs values nd) t.nodes;
  Array.map (view inputs values) t.outputs

(* Lanes of [live] where two output views differ.  Views of different
   widths differ everywhere, as [Hls_bitvec.equal] has it. *)
let differ ~live a b =
  if a.vlen <> b.vlen then live
  else begin
    let d = ref 0 in
    for i = 0 to a.vlen - 1 do
      d := !d lor (bit a i lxor bit b i)
    done;
    !d land live
  end

(* Lane [l] of a view, or of a value's words, as a bit vector. *)
let lane v l = Bv.init v.vlen (fun i -> (bit v i lsr l) land 1 = 1)

let lane_of_words w l =
  Bv.init (Array.length w) (fun i -> (w.(i) lsr l) land 1 = 1)
