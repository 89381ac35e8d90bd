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

    - every dependency is one packed int — tag bit 0 distinguishes a
      same-node carry ([Self]) from an operand bit ([Node] source);
    - [Input]/[Const] bits are omitted: they are stable at slot 0 and never
      constrain any analysis, so consumers fold over strictly fewer
      entries than the list API returned (results are unchanged — every
      fold starts from the slot-0 identity);
    - per-bit δ costs and a prefix count of δ-costly bits give O(1)
      answers to the "how many adder cells does this bit range occupy?"
      questions the mobility/coalescing/binding passes keep asking.

    The net is immutable after construction and safe to share across
    domains (parallel design-space sweeps build it once per kernel). *)

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
  deps : int array;  (** packed dependencies (see [dep_is_self] etc.) *)
  flat_deps : int array;
      (** [deps] re-encoded for the wavefront kernels: same CSR offsets
          ([dep_off]), each entry the flat [bit_base]-indexed slot of the
          source bit — one indirection per dependency load, no tag
          decode *)
  node_level : int array;
      (** per node: topological level (0 = fed only by inputs/constants
          and its own carry chain; otherwise 1 + max producer level) *)
  level_off : int array;
      (** length [n_levels + 1]: CSR offsets into [level_nodes] *)
  level_nodes : int array;
      (** node ids grouped by level, ascending id within a level — the
          wavefront order of the timing kernels *)
  rdep_off : int array;
      (** length [total_bits + 1]: CSR offsets into [rdeps] *)
  rdeps : int array;
      (** transpose of [flat_deps]: per flat bit, the flat slots of the
          bits that consume it (including same-node carry consumers) —
          what lets the deadline pass pull instead of push *)
}

(* Packed encoding: bit 0 tags the kind.
     Self j           ->  j lsl 1
     Bit (Node id, i) ->  (((id lsl bit_shift) lor i) lsl 1) lor 1
   Input/Const bits are not stored at all. *)
let bit_shift = 20
let bit_mask = (1 lsl bit_shift) - 1
let max_width = 1 lsl bit_shift

let dep_is_self d = d land 1 = 0
let dep_self_bit d = d lsr 1
let dep_node_id d = d lsr (bit_shift + 1)
let dep_node_bit d = (d lsr 1) land bit_mask

let pack_self j = j lsl 1
let pack_node id i = (((id lsl bit_shift) lor i) lsl 1) lor 1

(* Growable int buffer for the deps array. *)
type ivec = { mutable a : int array; mutable len : int }

let ivec_create () = { a = Array.make 1024 0; len = 0 }

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

(* The dependency model of one node: emit the δ cost and packed rows of
   every result bit into the shared [deps] buffer, recording
   [cost.(base + pos)] and [dep_off.(base + pos + 1) = deps.len].  A
   node's rows depend only on its own kind/operands/width — never on the
   rest of the graph — which is what makes [rebuild_dirty] sound: clean
   nodes' spans can be blitted verbatim from the previous net. *)
let emit_node deps cost dep_off ~base (n : node) =
  (* Emit the source bit feeding computation position [pos] through
     operand [o] (nothing for Input/Const sources or zero padding). *)
  let push_operand_bit (o : operand) pos =
    if pos < Operand.width o then (
      match o.src with
      | Node id -> ivec_push deps (pack_node id (o.lo + pos))
      | Input _ | Const _ -> ())
    else
      match o.ext with
      | Zext -> ()
      | Sext -> (
          match o.src with
          | Node id -> ivec_push deps (pack_node id o.hi)
          | Input _ | Const _ -> ())
  in
  let push_all_operand_bits (o : operand) =
    match o.src with
    | Node id ->
        for p = 0 to Operand.width o - 1 do
          ivec_push deps (pack_node id (o.lo + p))
        done
    | Input _ | Const _ -> ()
  in
  let push_carry pos = if pos > 0 then ivec_push deps (pack_self (pos - 1)) in
  begin
      (* One-time operand array: no List.nth walk per bit. *)
      let ops = Array.of_list n.operands in
      let op i = ops.(i) in
      let n_ops = Array.length ops in
      let max_operand_width () =
        let w = ref 1 in
        for i = 0 to n_ops - 1 do
          w := max !w (Operand.width ops.(i))
        done;
        !w
      in
      (* Node-source bit intervals feeding multiplier bit [pos], merged by
         construction: overlapping reads of one source (e.g. squaring)
         collapse without the quadratic dedup of the list model. *)
      let push_mul_intervals pos =
        let ivs = ref [] in
        for i = 0 to n_ops - 1 do
          let o = ops.(i) in
          let k = min (pos + 1) (Operand.width o) in
          if k > 0 then
            match o.src with
            | Node id -> ivs := (id, o.lo, o.lo + k - 1) :: !ivs
            | Input _ | Const _ -> ()
        done;
        let sorted = List.sort compare !ivs in
        let rec emit = function
          | [] -> ()
          | [ (id, lo, hi) ] ->
              for b = lo to hi do
                ivec_push deps (pack_node id b)
              done
          | (id1, lo1, hi1) :: ((id2, lo2, hi2) :: tl as rest) ->
              if id1 = id2 && lo2 <= hi1 + 1 then
                emit ((id1, lo1, max hi1 hi2) :: tl)
              else begin
                for b = lo1 to hi1 do
                  ivec_push deps (pack_node id1 b)
                done;
                emit rest
              end
        in
        emit sorted
      in
      let two_op_adder ~cin operands pos =
        let cover =
          List.fold_left
            (fun acc (o : operand) ->
              match o.ext with
              | Sext -> max_int
              | Zext -> max acc (Operand.width o))
            0 operands
        in
        if pos < cover then begin
          List.iter (fun o -> push_operand_bit o pos) operands;
          push_carry pos;
          (if pos = 0 then
             match cin with
             | Some (c : operand) -> (
                 match c.src with
                 | Node id -> ivec_push deps (pack_node id c.lo)
                 | Input _ | Const _ -> ())
             | None -> ());
          1
        end
        else begin
          push_carry pos;
          0
        end
      in
      for pos = 0 to n.width - 1 do
        let c =
          match n.kind with
          | Add -> (
              match n.operands with
              | [ a; b ] -> two_op_adder ~cin:None [ a; b ] pos
              | [ a; b; c ] -> two_op_adder ~cin:(Some c) [ a; b ] pos
              | _ -> invalid_arg "Bitnet: malformed add")
          | Sub | Neg -> two_op_adder ~cin:None n.operands pos
          | Mul ->
              push_mul_intervals pos;
              push_carry pos;
              1
          | Lt | Le | Gt | Ge | Eq | Neq ->
              Array.iter push_all_operand_bits ops;
              max_operand_width ()
          | Max | Min ->
              Array.iter push_all_operand_bits ops;
              Array.iter (fun o -> push_operand_bit o pos) ops;
              max_operand_width ()
          | Not | Wire ->
              push_operand_bit (op 0) pos;
              0
          | And | Or | Xor ->
              Array.iter (fun o -> push_operand_bit o pos) ops;
              0
          | Gate ->
              push_operand_bit (op 0) pos;
              let ctrl = op 1 in
              (match ctrl.src with
              | Node id -> ivec_push deps (pack_node id ctrl.lo)
              | Input _ | Const _ -> ());
              0
          | Mux ->
              let sel = op 0 in
              (match sel.src with
              | Node id -> ivec_push deps (pack_node id sel.lo)
              | Input _ | Const _ -> ());
              push_operand_bit (op 1) pos;
              push_operand_bit (op 2) pos;
              0
          | Concat ->
              let rec find offset i =
                if i >= n_ops then ()
                else
                  let o = ops.(i) in
                  let w = Operand.width o in
                  if pos < offset + w then (
                    match o.src with
                    | Node id -> ivec_push deps (pack_node id (o.lo + (pos - offset)))
                    | Input _ | Const _ -> ())
                  else find (offset + w) (i + 1)
              in
              find 0 0;
              0
          | Reduce_or ->
              push_all_operand_bits (op 0);
              0
        in
        cost.(base + pos) <- c;
        dep_off.(base + pos + 1) <- deps.len
      done
  end

(* Node widths (and a width-bound check) folded into the flat bit
   layout. *)
let bases_of graph =
  let n_nodes = Graph.node_count graph in
  let bit_base = Array.make (n_nodes + 1) 0 in
  for id = 0 to n_nodes - 1 do
    let w = (Graph.node graph id).width in
    if w >= max_width then
      invalid_arg
        (Printf.sprintf "Bitnet.build: node %d width %d exceeds %d" id w
           max_width);
    bit_base.(id + 1) <- bit_base.(id) + w
  done;
  bit_base

(* Everything downstream of the dependency rows: cheap O(V + E) int
   passes deriving the prefix counts, the flat re-encoding, the
   wavefront levels and the transpose.  Shared by [build] and
   [rebuild_dirty] so both construction paths are definitionally
   identical past the rows. *)
let derive graph ~bit_base ~cost ~dep_off ~deps =
  let n_nodes = Graph.node_count graph in
  let total_bits = bit_base.(n_nodes) in
  let costly_prefix = Array.make (total_bits + 1) 0 in
  for b = 0 to total_bits - 1 do
    costly_prefix.(b + 1) <-
      costly_prefix.(b) + (if cost.(b) > 0 then 1 else 0)
  done;
  let n_deps = Array.length deps in
  (* Flat re-encoding: the wavefront kernels load a source slot with one
     array indirection, so the tag decode happens here, once per graph. *)
  let flat_deps = Array.make n_deps 0 in
  for id = 0 to n_nodes - 1 do
    for k = dep_off.(bit_base.(id)) to dep_off.(bit_base.(id + 1)) - 1 do
      let d = deps.(k) in
      flat_deps.(k) <-
        (if dep_is_self d then bit_base.(id) + dep_self_bit d
         else bit_base.(dep_node_id d) + dep_node_bit d)
    done
  done;
  (* Topological level of each node: carry chains stay within a level, so
     a level is exactly the set of nodes whose cross-node inputs are all
     settled once every earlier level is.  Ascending ids are topological
     (operands reference strictly smaller ids), so one pass suffices. *)
  let node_level = Array.make (max n_nodes 1) 0 in
  for id = 0 to n_nodes - 1 do
    let lvl = ref 0 in
    for k = dep_off.(bit_base.(id)) to dep_off.(bit_base.(id + 1)) - 1 do
      let d = deps.(k) in
      if not (dep_is_self d) then
        lvl := max !lvl (node_level.(dep_node_id d) + 1)
    done;
    node_level.(id) <- !lvl
  done;
  let n_levels =
    if n_nodes = 0 then 0
    else 1 + Array.fold_left max 0 (Array.sub node_level 0 n_nodes)
  in
  let level_off = Array.make (n_levels + 1) 0 in
  for id = 0 to n_nodes - 1 do
    level_off.(node_level.(id) + 1) <- level_off.(node_level.(id) + 1) + 1
  done;
  for l = 0 to n_levels - 1 do
    level_off.(l + 1) <- level_off.(l + 1) + level_off.(l)
  done;
  let level_nodes = Array.make n_nodes 0 in
  let cursor = Array.copy level_off in
  for id = 0 to n_nodes - 1 do
    let l = node_level.(id) in
    level_nodes.(cursor.(l)) <- id;
    cursor.(l) <- cursor.(l) + 1
  done;
  (* Transpose CSR: who consumes each flat bit.  Filling by ascending
     consumer bit keeps every [rdeps] run sorted. *)
  let rdep_off = Array.make (total_bits + 1) 0 in
  for k = 0 to n_deps - 1 do
    rdep_off.(flat_deps.(k) + 1) <- rdep_off.(flat_deps.(k) + 1) + 1
  done;
  for b = 0 to total_bits - 1 do
    rdep_off.(b + 1) <- rdep_off.(b + 1) + rdep_off.(b)
  done;
  let rdeps = Array.make n_deps 0 in
  let rcursor = Array.copy rdep_off in
  for b = 0 to total_bits - 1 do
    for k = dep_off.(b) to dep_off.(b + 1) - 1 do
      let src = flat_deps.(k) in
      rdeps.(rcursor.(src)) <- b;
      rcursor.(src) <- rcursor.(src) + 1
    done
  done;
  Hls_telemetry.gauge "timing.levels" (float n_levels);
  {
    graph;
    bit_base;
    cost;
    costly_prefix;
    dep_off;
    deps;
    flat_deps;
    node_level;
    level_off;
    level_nodes;
    rdep_off;
    rdeps;
  }

let build graph =
  let bit_base = bases_of graph in
  let n_nodes = Graph.node_count graph in
  let total_bits = bit_base.(n_nodes) in
  let cost = Array.make total_bits 0 in
  let dep_off = Array.make (total_bits + 1) 0 in
  let deps = ivec_create () in
  Graph.iter_nodes
    (fun (n : node) -> emit_node deps cost dep_off ~base:bit_base.(n.id) n)
    graph;
  let deps = Array.sub deps.a 0 deps.len in
  derive graph ~bit_base ~cost ~dep_off ~deps

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
      let is_dirty = Array.make (max n_nodes 1) false in
      List.iter
        (fun id -> if id >= 0 && id < n_nodes then is_dirty.(id) <- true)
        dirty;
      let cost = Array.copy old.cost in
      let dep_off = Array.make (total_bits + 1) 0 in
      let deps = ivec_create () in
      let dirty_nodes = ref 0 in
      for id = 0 to n_nodes - 1 do
        if is_dirty.(id) then begin
          incr dirty_nodes;
          emit_node deps cost dep_off ~base:bit_base.(id)
            (Graph.node graph id)
        end
        else begin
          (* Clean rows are untouched by an edit elsewhere: blit the old
             span and rebase its offsets. *)
          let lo = old.dep_off.(bit_base.(id)) in
          let hi = old.dep_off.(bit_base.(id + 1)) in
          ivec_blit deps old.deps lo (hi - lo);
          for b = bit_base.(id) to bit_base.(id + 1) - 1 do
            dep_off.(b + 1) <-
              dep_off.(b) + old.dep_off.(b + 1) - old.dep_off.(b)
          done
        end
      done;
      let deps = Array.sub deps.a 0 deps.len in
      Hls_telemetry.count "timing.rebuild_dirty";
      if !dirty_nodes > 0 then
        Hls_telemetry.count ~n:!dirty_nodes "timing.rebuild_dirty_nodes";
      Some (derive graph ~bit_base ~cost ~dep_off ~deps)
    end
  end

let total_bits t = t.bit_base.(Array.length t.bit_base - 1)
let n_levels t = Array.length t.level_off - 1

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

let fold_deps t ~id ~bit ~init ~f =
  let b = t.bit_base.(id) + bit in
  let acc = ref init in
  for k = t.dep_off.(b) to t.dep_off.(b + 1) - 1 do
    acc := f !acc t.deps.(k)
  done;
  !acc

(** Decode the packed deps of one bit back to the list form of
    {!Bitdep.dep} (minus the omitted [Input]/[Const] bits) — for tests and
    debugging, not for hot paths. *)
let deps_list t ~id ~bit =
  List.rev
    (fold_deps t ~id ~bit ~init:[] ~f:(fun acc d ->
         (if dep_is_self d then Bitdep.Self (dep_self_bit d)
          else Bitdep.Bit (Node (dep_node_id d), dep_node_bit d))
         :: acc))
