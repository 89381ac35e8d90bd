(** The dataflow graph: nodes in topological order plus port bindings. *)

open Types
module Decimal = Hls_util.Decimal

type index = {
  uses : (node * operand) list array;
      (** per producer id: every (consumer node, operand) reading it, in
          node order (operands in declaration order within a node) *)
  out_uses : (string * operand) list array;
      (** per producer id: the output ports it drives *)
}

type t = {
  name : string;
  inputs : port list;
  outputs : (string * operand) list;
      (** each output port is driven by one operand *)
  nodes : node array;  (** index = node id; topological by construction *)
  cached_index : index option Atomic.t;
      (** lazily built reverse adjacency; the atomic makes concurrent
          builds from parallel sweep domains race-free (worst case both
          build, one wins) *)
}

let name t = t.name
let node_count t = Array.length t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Graph.node: no node %d in %s" id t.name);
  t.nodes.(id)

let nodes t = Array.to_list t.nodes
let iter_nodes f t = Array.iter f t.nodes
let fold_nodes f acc t = Array.fold_left f acc t.nodes

let find_input t name =
  List.find_opt (fun p -> String.equal p.port_name name) t.inputs

let input_exn t n =
  match find_input t n with
  | Some p -> p
  | None ->
      invalid_arg (Printf.sprintf "Graph.input_exn: no input %s in %s" n t.name)

(** Width of whatever an operand source produces. *)
let source_width t = function
  | Input n -> (input_exn t n).port_width
  | Node id -> (node t id).width
  | Const bv -> Hls_bitvec.width bv

(** Build the reverse adjacency in one O(V+E) pass: for every producer,
    the (consumer, operand) pairs reading it — same order as the old
    whole-graph scan produced (consumers by ascending id, operands in
    declaration order). *)
let build_index t =
  let n = Array.length t.nodes in
  let uses = Array.make n [] in
  let out_uses = Array.make n [] in
  Array.iter
    (fun (consumer : node) ->
      List.iter
        (fun o ->
          match o.src with
          | Node i -> uses.(i) <- (consumer, o) :: uses.(i)
          | Input _ | Const _ -> ())
        consumer.operands)
    t.nodes;
  List.iter
    (fun (name, (o : operand)) ->
      match o.src with
      | Node i -> out_uses.(i) <- (name, o) :: out_uses.(i)
      | Input _ | Const _ -> ())
    t.outputs;
  {
    uses = Array.map List.rev uses;
    out_uses = Array.map List.rev out_uses;
  }

(** The memoized reverse adjacency of the graph (built on first use). *)
let index t =
  match Atomic.get t.cached_index with
  | Some idx -> idx
  | None ->
      let idx = build_index t in
      Atomic.set t.cached_index (Some idx);
      idx

(** All (consumer node, operand) pairs reading from node [id]. *)
let consumers t id = (index t).uses.(id)

(** Output ports (name, operand) driven by node [id]. *)
let output_consumers t id = (index t).out_uses.(id)

let is_dead t id =
  let idx = index t in
  idx.uses.(id) = [] && idx.out_uses.(id) = []

(** Number of behavioural operations (the paper's "operations" count used in
    the +34 % / +30 % observations): nodes whose kind is additive. *)
let behavioural_op_count t =
  fold_nodes (fun acc n -> if is_additive n.kind then acc + 1 else acc) 0 t

let count_kind t k =
  fold_nodes (fun acc n -> if n.kind = k then acc + 1 else acc) 0 t

(** Total adder result bits in the graph — a quick structural proxy used by
    tests (the real area model lives in {!Hls_alloc}). *)
let total_add_bits t =
  fold_nodes (fun acc n -> if n.kind = Add then acc + n.width else acc) 0 t

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

(* The per-node checks below allocate nothing on a valid graph: no
   closure per node or operand, no option per port lookup; only a failing
   check formats its message. *)
let check_operand t ports (consumer : node) (o : operand) =
  if o.lo < 0 || o.hi < o.lo then
    invalid "node %d: operand %a has a bad bit range" consumer.id Operand.pp o;
  let sw =
    match o.src with
    | Node id ->
        if id < 0 || id >= Array.length t.nodes then
          invalid "node %d reads undefined node %d" consumer.id id;
        if id >= consumer.id then
          invalid "node %d reads node %d, breaking topological order"
            consumer.id id;
        t.nodes.(id).width
    | Input n -> (
        match Hashtbl.find ports n with
        | w -> w
        | exception Not_found ->
            invalid "node %d reads undefined input %s" consumer.id n)
    | Const bv -> Hls_bitvec.width bv
  in
  if o.hi >= sw then
    invalid "node %d: operand %a exceeds source width %d" consumer.id
      Operand.pp o sw

let rec check_operands t ports consumer = function
  | [] -> ()
  | o :: tl ->
      check_operand t ports consumer o;
      check_operands t ports consumer tl

let check_arity n ~got ok =
  if not ok then
    invalid "node %d (%s): arity %d not allowed" n.id (kind_to_string n.kind)
      got

let operand_width n i = Operand.width (List.nth n.operands i)

let rec width_sum acc = function
  | [] -> acc
  | o :: tl -> width_sum (acc + Operand.width o) tl

let check_node t ports n =
  if n.width < 1 then invalid "node %d: width must be >= 1" n.id;
  check_operands t ports n n.operands;
  let got = List.length n.operands in
  (match n.kind with
  | Add ->
      check_arity n ~got (got = 2 || got = 3);
      if got = 3 && operand_width n 2 <> 1 then
        invalid "node %d: carry-in operand must be 1 bit" n.id
  | Sub | Mul | Max | Min | And | Or | Xor -> check_arity n ~got (got = 2)
  | Lt | Le | Gt | Ge | Eq | Neq ->
      check_arity n ~got (got = 2);
      if n.width <> 1 then
        invalid "node %d: comparison result must be 1 bit" n.id
  | Neg | Not | Wire -> check_arity n ~got (got = 1)
  | Reduce_or ->
      check_arity n ~got (got = 1);
      if n.width <> 1 then
        invalid "node %d: reduce_or result must be 1 bit" n.id
  | Gate ->
      check_arity n ~got (got = 2);
      if operand_width n 1 <> 1 then
        invalid "node %d: gate control must be 1 bit" n.id
  | Mux ->
      check_arity n ~got (got = 3);
      if operand_width n 0 <> 1 then
        invalid "node %d: mux select must be 1 bit" n.id
  | Concat ->
      if n.operands = [] then invalid "node %d: empty concat" n.id;
      let sum = width_sum 0 n.operands in
      if sum <> n.width then
        invalid "node %d: concat operand widths sum to %d, width is %d" n.id
          sum n.width);
  match n.origin with
  | Some o when o.orig_lo < 0 || o.orig_hi < o.orig_lo ->
      invalid "node %d: bad origin bit range" n.id
  | _ -> ()

(** Structural validation: ids dense and ordered, operand references legal,
    arities and widths consistent.  Raises [Invalid]. *)
let validate t =
  (* Input port name -> width: every [Input] operand is one lookup. *)
  let ports = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if p.port_width < 1 then invalid "input %s: width must be >= 1" p.port_name;
      if Hashtbl.mem ports p.port_name then
        invalid "duplicate input port %s" p.port_name;
      Hashtbl.add ports p.port_name p.port_width)
    t.inputs;
  Array.iteri
    (fun i n -> if n.id <> i then invalid "node %d stored at index %d" n.id i)
    t.nodes;
  Array.iter (check_node t ports) t.nodes;
  let out_seen = Hashtbl.create 16 in
  List.iter
    (fun (name, o) ->
      if Hashtbl.mem out_seen name then invalid "duplicate output port %s" name;
      Hashtbl.add out_seen name ();
      if o.lo < 0 || o.hi < o.lo then
        invalid "output %s has a bad bit range" name;
      let sw =
        match o.src with
        | Node id ->
            if id < 0 || id >= Array.length t.nodes then
              invalid "output %s reads undefined node %d" name id;
            t.nodes.(id).width
        | Input n -> (
            match Hashtbl.find ports n with
            | w -> w
            | exception Not_found ->
                invalid "output %s reads undefined input %s" name n)
        | Const bv -> Hls_bitvec.width bv
      in
      if o.hi >= sw then
        invalid "output %s exceeds source width %d" name sw)
    t.outputs

let validate_result t =
  match validate t with () -> Ok () | exception Invalid m -> Error m

(* ---- Printed form ---- *)

(* The printed form is written straight into one [Buffer], decimal
   digits included ({!Hls_util.Decimal.add_int}): no format
   interpretation and no intermediate string per node or operand.  One
   writer serves {!to_string}, {!pp}, {!digest} and the recipe engine's
   change detection, which prints the graph after every pass. *)

let add_port buf p =
  Buffer.add_string buf p.port_name;
  Buffer.add_char buf '/';
  Decimal.add_int buf p.port_width

let rec add_ports buf = function
  | [] -> ()
  | [ p ] -> add_port buf p
  | p :: tl ->
      add_port buf p;
      Buffer.add_string buf ", ";
      add_ports buf tl

let rec add_operands buf = function
  | [] -> ()
  | [ o ] -> Operand.add_to_buffer buf o
  | o :: tl ->
      Operand.add_to_buffer buf o;
      Buffer.add_string buf ", ";
      add_operands buf tl

let add_node buf (n : node) =
  Buffer.add_char buf 'n';
  Decimal.add_int buf n.id;
  if n.label <> "" then begin
    Buffer.add_char buf '(';
    Buffer.add_string buf n.label;
    Buffer.add_char buf ')'
  end;
  Buffer.add_string buf ": ";
  Buffer.add_string buf (kind_to_string n.kind);
  Buffer.add_char buf '/';
  Decimal.add_int buf n.width;
  Buffer.add_string buf
    (match n.signedness with Unsigned -> " u <- " | Signed -> " s <- ");
  add_operands buf n.operands;
  Buffer.add_char buf '\n'

let add_output buf (name, o) =
  Buffer.add_string buf name;
  Buffer.add_string buf " <- ";
  Operand.add_to_buffer buf o

let rec add_outputs buf = function
  | [] -> ()
  | [ out ] -> add_output buf out
  | out :: tl ->
      add_output buf out;
      Buffer.add_string buf ", ";
      add_outputs buf tl

let add_to_buffer buf t =
  Buffer.add_string buf "graph ";
  Buffer.add_string buf t.name;
  Buffer.add_string buf "\ninputs: ";
  add_ports buf t.inputs;
  Buffer.add_char buf '\n';
  Array.iter (add_node buf) t.nodes;
  Buffer.add_string buf "outputs: ";
  add_outputs buf t.outputs

(* Catalog and generated designs print at 40-70 bytes per node, ports
   included (dct8 55, random480 68, the cold pool about 42): a typical
   graph fits, a port-heavy one regrows the buffer once. *)
let text_buffer t = Buffer.create (256 + (56 * Array.length t.nodes))

let to_string t =
  let buf = text_buffer t in
  add_to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let digest t =
  let buf = text_buffer t in
  Buffer.add_string buf t.name;
  Buffer.add_char buf '\n';
  add_to_buffer buf t;
  Digest.to_hex (Digest.string (Buffer.contents buf))
