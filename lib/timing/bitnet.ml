(** Precomputed bit-level dependency net.

    {!Bitdep.bit_deps} answers one [(node, bit)] query at a time by
    rebuilding the dependency list — an allocation per query, quadratic
    [List_ext.dedup] for multipliers, and a [List.nth] walk per operand.
    Every timing pass (arrival, deadline, mobility, the fragment
    scheduler's per-candidate-cycle feasibility probe) repeats those
    queries over all bits of all nodes, so the rebuild cost multiplies
    into the hot path of the whole flow.

    [Bitnet.build] runs the dependency model {e once} per graph and flattens
    it into CSR-style int arrays:

    - every dependency is the flat [bit_base]-indexed slot of its source
      bit: a same-node carry is [bit_base.(id) + j], an operand bit
      [bit_base.(src) + i] — below [bit_base.(id)], since operands
      reference strictly smaller ids;
    - [Input]/[Const] bits are omitted: they are stable at slot 0 and never
      constrain any analysis, so consumers fold over strictly fewer
      entries than the list API returned (results are unchanged — every
      fold starts from the slot-0 identity);
    - per-bit δ costs and a prefix count of δ-costly bits give O(1)
      answers to the "how many adder cells does this bit range occupy?"
      questions the mobility/coalescing/binding passes keep asking.

    Node ids are topological, so the timing kernels sweep them in id
    order (ascending for arrival, descending for deadlines) and need no
    level structure.  The net is immutable after construction and safe to
    share across domains (parallel design-space sweeps build it once per
    kernel). *)

open Hls_dfg.Types
module Operand = Hls_dfg.Operand
module Graph = Hls_dfg.Graph

type t = {
  graph : Graph.t;
  bit_base : int array;
      (** length [node_count + 1]: flat index of bit 0 of each node; the
          width of node [id] is [bit_base.(id+1) - bit_base.(id)] *)
  cost : int array;  (** per flat bit: δ cost of producing it *)
  costly_prefix : int array;
      (** length [total_bits + 1]: running count of δ-costly bits, for O(1)
          range queries *)
  dep_off : int array;
      (** length [total_bits + 1]: CSR offsets into [deps] *)
  deps : int array;
      (** per dependency: the flat [bit_base]-indexed slot of the source
          bit — one load per dependency *)
  rdep_off : int array;
      (** length [total_bits + 1]: CSR offsets into [rdeps] *)
  rdeps : int array;
      (** transpose of [deps]: per flat bit, the flat slots of the bits
          that consume it (including same-node carry consumers) — what
          lets the deadline pass pull instead of push *)
}

(* Int-typed [max]: [Stdlib.max] is polymorphic and compares through the
   runtime. *)
let imax (a : int) b = if a >= b then a else b

(* Growable int buffer for the deps array. *)
type ivec = { mutable a : int array; mutable len : int }

let ivec_create cap = { a = Array.make (imax cap 16) 0; len = 0 }

(* Each domain keeps one dependency buffer between builds: a build takes
   it (a nested build finds none and makes its own), copies out its
   exact-length [deps] and hands it back, so a sweep does not regrow a
   buffer per graph. *)
let spare : ivec option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_deps cap =
  let r = Domain.DLS.get spare in
  match !r with
  | Some v ->
      r := None;
      v.len <- 0;
      v
  | None -> ivec_create cap

let release_deps v =
  let deps = Array.sub v.a 0 v.len in
  Domain.DLS.get spare := Some v;
  deps

(* Kernel-form graphs run at under two dependencies per bit (at
   most two summand bits and a carry on adder bits, one source bit on
   wiring): a fresh buffer this long is rarely regrown. *)
let deps_estimate total_bits = (3 * total_bits) + 16

let ivec_push v x =
  if v.len = Array.length v.a then begin
    let a' = Array.make (2 * Array.length v.a) 0 in
    Array.blit v.a 0 a' 0 v.len;
    v.a <- a'
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let ivec_blit v src pos len =
  let cap = ref (Array.length v.a) in
  while v.len + len > !cap do
    cap := 2 * !cap
  done;
  if !cap > Array.length v.a then begin
    let a' = Array.make !cap 0 in
    Array.blit v.a 0 a' 0 v.len;
    v.a <- a'
  end;
  Array.blit src pos v.a v.len len;
  v.len <- v.len + len

(* ---- The dependency model, one node at a time ----

   Top-level functions over the operand list, passed the buffer and the
   layout explicitly: a node source's bits are written as flat slots
   [bb.(id) + i], which the writer already knows because ids ascend.
   Writing a node's rows allocates nothing but buffer growth
   (multipliers aside, whose merged read intervals go through a sorted
   list). *)

(* The source bit feeding computation position [pos] through operand [o]
   (nothing for Input/Const sources or zero padding). *)
let push_operand_bit deps bb (o : operand) pos =
  match o.src with
  | Node id ->
      if pos < Operand.width o then ivec_push deps (bb.(id) + o.lo + pos)
      else if o.ext = Sext then ivec_push deps (bb.(id) + o.hi)
  | Input _ | Const _ -> ()

(* [push_operand_bit] through the first [k] operands. *)
let rec push_operands_bit deps bb ops k pos =
  match ops with
  | o :: tl when k > 0 ->
      push_operand_bit deps bb o pos;
      push_operands_bit deps bb tl (k - 1) pos
  | _ -> ()

(* Every selected bit of an operand, and of every operand. *)
let push_all_operand_bits deps bb (o : operand) =
  match o.src with
  | Node id ->
      for p = 0 to Operand.width o - 1 do
        ivec_push deps (bb.(id) + o.lo + p)
      done
  | Input _ | Const _ -> ()

let rec push_all_bits deps bb = function
  | [] -> ()
  | o :: tl ->
      push_all_operand_bits deps bb o;
      push_all_bits deps bb tl

(* Bit [o.lo] of a one-bit control operand (carry in, gate, select). *)
let push_low_bit deps bb (o : operand) =
  match o.src with
  | Node id -> ivec_push deps (bb.(id) + o.lo)
  | Input _ | Const _ -> ()

(* The carry out of the node's own bit [pos - 1]. *)
let push_carry deps ~base pos = if pos > 0 then ivec_push deps (base + pos - 1)

let rec max_operand_width acc = function
  | [] -> acc
  | o :: tl -> max_operand_width (imax acc (Operand.width o)) tl

(* Positions below the cover of the first [k] operands (all of them once
   one sign-extends) take summand bits; above it only the carry
   ripples on. *)
let rec cover_of acc k = function
  | (o : operand) :: tl when k > 0 -> (
      match o.ext with
      | Sext -> max_int
      | Zext -> cover_of (imax acc (Operand.width o)) (k - 1) tl)
  | _ -> acc

(* The Concat operand covering position [pos]. *)
let rec push_concat_bit deps bb ops offset pos =
  match ops with
  | [] -> ()
  | (o : operand) :: tl ->
      let w = Operand.width o in
      if pos < offset + w then (
        match o.src with
        | Node id -> ivec_push deps (bb.(id) + o.lo + (pos - offset))
        | Input _ | Const _ -> ())
      else push_concat_bit deps bb tl (offset + w) pos

let rec nth_operand (ops : operand list) i =
  match ops with
  | [] -> invalid_arg "index out of bounds"
  | o :: tl -> if i = 0 then o else nth_operand tl (i - 1)

(* Flat slot intervals feeding multiplier bit [pos], merged by
   construction: overlapping reads of one source (e.g. squaring)
   collapse without the quadratic dedup of the list model.  Distinct
   nodes' slots never overlap, so merging on slots alone is exact. *)
let push_mul_intervals deps bb ops pos =
  let ivs =
    List.fold_left
      (fun ivs (o : operand) ->
        let k = Int.min (pos + 1) (Operand.width o) in
        if k > 0 then
          match o.src with
          | Node id ->
              let lo = bb.(id) + o.lo in
              (lo, lo + k - 1) :: ivs
          | Input _ | Const _ -> ivs
        else ivs)
      [] ops
  in
  let rec emit = function
    | [] -> ()
    | [ (lo, hi) ] ->
        for b = lo to hi do
          ivec_push deps b
        done
    | (lo1, hi1) :: ((lo2, hi2) :: tl as rest) ->
        if lo2 <= hi1 + 1 then emit ((lo1, imax hi1 hi2) :: tl)
        else begin
          for b = lo1 to hi1 do
            ivec_push deps b
          done;
          emit rest
        end
  in
  emit (List.sort compare ivs)

(* The dependency model of one node: emit the δ cost and flat rows of
   every result bit into the shared [deps] buffer, recording
   [cost.(base + pos)] and [dep_off.(base + pos + 1) = deps.len].  A
   node's rows depend only on its own kind/operands/width and on the
   layout of the nodes below it — never on the rest of the graph — which
   is what makes [rebuild_dirty] sound: under an unmoved layout, clean
   nodes' spans can be blitted verbatim from the previous net. *)
let emit_rows deps cost dep_off bb ~base kind ~width ops =
  let n_ops = List.length ops in
  (* Adders ripple over their first [summands] operands; an [Add]'s
     optional third operand is a carry in, read at bit 0 only. *)
  let summands =
    match kind with
    | Add ->
        if n_ops = 2 || n_ops = 3 then 2
        else invalid_arg "Bitnet: malformed add"
    | Sub | Neg -> n_ops
    | _ -> 0
  in
  let cover = cover_of 0 summands ops in
  for pos = 0 to width - 1 do
    let c =
      match kind with
      | Add | Sub | Neg ->
          if pos < cover then begin
            push_operands_bit deps bb ops summands pos;
            push_carry deps ~base pos;
            if pos = 0 && summands < n_ops then
              push_low_bit deps bb (nth_operand ops summands);
            1
          end
          else begin
            push_carry deps ~base pos;
            0
          end
      | Mul ->
          push_mul_intervals deps bb ops pos;
          push_carry deps ~base pos;
          1
      | Lt | Le | Gt | Ge | Eq | Neq ->
          push_all_bits deps bb ops;
          max_operand_width 1 ops
      | Max | Min ->
          push_all_bits deps bb ops;
          push_operands_bit deps bb ops n_ops pos;
          max_operand_width 1 ops
      | Not | Wire ->
          push_operand_bit deps bb (nth_operand ops 0) pos;
          0
      | And | Or | Xor ->
          push_operands_bit deps bb ops n_ops pos;
          0
      | Gate ->
          push_operand_bit deps bb (nth_operand ops 0) pos;
          push_low_bit deps bb (nth_operand ops 1);
          0
      | Mux ->
          push_low_bit deps bb (nth_operand ops 0);
          push_operand_bit deps bb (nth_operand ops 1) pos;
          push_operand_bit deps bb (nth_operand ops 2) pos;
          0
      | Concat ->
          push_concat_bit deps bb ops 0 pos;
          0
      | Reduce_or ->
          push_all_operand_bits deps bb (nth_operand ops 0);
          0
    in
    cost.(base + pos) <- c;
    dep_off.(base + pos + 1) <- deps.len
  done

(* Everything downstream of the dependency rows: cheap O(V + E) int
   passes deriving the prefix counts and the transpose.  Shared by
   [build] and [rebuild_dirty] so both construction paths are
   definitionally identical past the rows. *)
let derive graph ~bit_base ~cost ~dep_off ~deps =
  let total_bits = bit_base.(Graph.node_count graph) in
  let costly_prefix = Array.make (total_bits + 1) 0 in
  for b = 0 to total_bits - 1 do
    costly_prefix.(b + 1) <-
      costly_prefix.(b) + (if cost.(b) > 0 then 1 else 0)
  done;
  let n_deps = Array.length deps in
  (* Transpose CSR: who consumes each flat bit.  Filling by ascending
     consumer bit keeps every [rdeps] run sorted. *)
  let rdep_off = Array.make (total_bits + 1) 0 in
  for k = 0 to n_deps - 1 do
    rdep_off.(deps.(k) + 1) <- rdep_off.(deps.(k) + 1) + 1
  done;
  for b = 0 to total_bits - 1 do
    rdep_off.(b + 1) <- rdep_off.(b + 1) + rdep_off.(b)
  done;
  (* Fill each run from its end, consumers descending, using
     [rdep_off.(src + 1)] as the cursor: it ends at the run's start,
     one slot to the right, and a shift puts it in place. *)
  let rdeps = Array.make n_deps 0 in
  for b = total_bits - 1 downto 0 do
    for k = dep_off.(b + 1) - 1 downto dep_off.(b) do
      let c = deps.(k) + 1 in
      rdep_off.(c) <- rdep_off.(c) - 1;
      rdeps.(rdep_off.(c)) <- b
    done
  done;
  Array.blit rdep_off 1 rdep_off 0 total_bits;
  rdep_off.(total_bits) <- n_deps;
  { graph; bit_base; cost; costly_prefix; dep_off; deps; rdep_off; rdeps }

(* A net written node by node while its graph is built: the rows [build]
   would emit, into arrays of the final size. *)
type writer = {
  w_base : int array;
  mutable w_nodes : int;
  w_cost : int array;
  w_dep_off : int array;
  w_deps : ivec;
}

let writer ~nodes ~bits =
  {
    w_base = Array.make (nodes + 1) 0;
    w_nodes = 0;
    w_cost = Array.make bits 0;
    w_dep_off = Array.make (bits + 1) 0;
    w_deps = take_deps (deps_estimate bits);
  }

let write w kind ~width operands =
  let id = w.w_nodes in
  let base = w.w_base.(id) in
  emit_rows w.w_deps w.w_cost w.w_dep_off w.w_base ~base kind ~width
    operands;
  w.w_base.(id + 1) <- base + width;
  w.w_nodes <- id + 1

let finish w graph =
  let n_nodes = w.w_nodes in
  let ok =
    ref
      (n_nodes = Graph.node_count graph
      && n_nodes + 1 = Array.length w.w_base
      && w.w_base.(n_nodes) = Array.length w.w_cost)
  in
  for id = 0 to (if !ok then n_nodes else 0) - 1 do
    if (Graph.node graph id).width <> w.w_base.(id + 1) - w.w_base.(id) then
      ok := false
  done;
  if not !ok then
    invalid_arg "Bitnet.finish: the rows written do not match the graph";
  derive graph ~bit_base:w.w_base ~cost:w.w_cost ~dep_off:w.w_dep_off
    ~deps:(release_deps w.w_deps)

let build graph =
  let n_nodes = Graph.node_count graph in
  let bits = ref 0 in
  for id = 0 to n_nodes - 1 do
    bits := !bits + (Graph.node graph id).width
  done;
  let w = writer ~nodes:n_nodes ~bits:!bits in
  for id = 0 to n_nodes - 1 do
    let n = Graph.node graph id in
    write w n.kind ~width:n.width n.operands
  done;
  finish w graph

let rebuild_dirty old graph ~dirty =
  let n_nodes = Graph.node_count graph in
  if n_nodes <> Array.length old.bit_base - 1 then None
  else begin
    let same_layout = ref true in
    for id = 0 to n_nodes - 1 do
      if
        (Graph.node graph id).width
        <> old.bit_base.(id + 1) - old.bit_base.(id)
      then same_layout := false
    done;
    if not !same_layout then None
    else begin
      let bit_base = old.bit_base in
      let total_bits = bit_base.(n_nodes) in
      let is_dirty = Array.make (imax n_nodes 1) false in
      List.iter
        (fun id -> if id >= 0 && id < n_nodes then is_dirty.(id) <- true)
        dirty;
      let cost = Array.copy old.cost in
      let dep_off = Array.make (total_bits + 1) 0 in
      let deps = take_deps (Array.length old.deps) in
      let dirty_nodes = ref 0 in
      for id = 0 to n_nodes - 1 do
        if is_dirty.(id) then begin
          incr dirty_nodes;
          let n = Graph.node graph id in
          emit_rows deps cost dep_off bit_base ~base:bit_base.(id) n.kind
            ~width:n.width n.operands
        end
        else begin
          (* Clean rows are untouched by an edit elsewhere (the layout
             did not move, so neither did their source slots): blit the
             old span and rebase its offsets. *)
          let lo = old.dep_off.(bit_base.(id)) in
          let hi = old.dep_off.(bit_base.(id + 1)) in
          ivec_blit deps old.deps lo (hi - lo);
          for b = bit_base.(id) to bit_base.(id + 1) - 1 do
            dep_off.(b + 1) <-
              dep_off.(b) + old.dep_off.(b + 1) - old.dep_off.(b)
          done
        end
      done;
      let deps = release_deps deps in
      Hls_telemetry.count "timing.rebuild_dirty";
      if !dirty_nodes > 0 then
        Hls_telemetry.count ~n:!dirty_nodes "timing.rebuild_dirty_nodes";
      Some (derive graph ~bit_base ~cost ~dep_off ~deps)
    end
  end

let total_bits t = t.bit_base.(Array.length t.bit_base - 1)
(* Weakly-connected regions over the node graph, joined by operand [Node]
   sources: a union-find with path halving, counted on demand (only the
   bench's kernel-shape section and the tests ask). *)
let n_regions t =
  let n_nodes = Array.length t.bit_base - 1 in
  let parent = Array.init n_nodes Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  let regions = ref n_nodes in
  Graph.iter_nodes
    (fun (n : node) ->
      List.iter
        (fun (o : operand) ->
          match o.src with
          | Node s ->
              let a = find n.id and b = find s in
              if a <> b then begin
                parent.(a) <- b;
                decr regions
              end
          | Input _ | Const _ -> ())
        n.operands)
    t.graph;
  !regions

let width t ~id = t.bit_base.(id + 1) - t.bit_base.(id)
let cost_of t ~id ~bit = t.cost.(t.bit_base.(id) + bit)

(** δ-costly bits among result bits [lo..hi] (inclusive) of node [id]:
    the adder cells that bit range occupies. *)
let costly_in_range t ~id ~lo ~hi =
  let base = t.bit_base.(id) in
  t.costly_prefix.(base + hi + 1) - t.costly_prefix.(base + lo)

(** δ-costly bits of the whole node. *)
let costly_width t ~id = costly_in_range t ~id ~lo:0 ~hi:(width t ~id - 1)

(** Owning node of a flat slot, by binary search over [bit_base]. *)
let node_of_slot t slot =
  let lo = ref 0 and hi = ref (Array.length t.bit_base - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.bit_base.(mid) <= slot then lo := mid else hi := mid
  done;
  !lo

