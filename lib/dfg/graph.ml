(** The dataflow graph: nodes in topological order plus port bindings. *)

open Types

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

(* Width of an operand source, with input ports looked up in [ports]
   (name -> width, built once per validation); a name missing there
   falls through to {!source_width} and its error. *)
let indexed_width t ports = function
  | Input n as src -> (
      match Hashtbl.find_opt ports n with
      | Some w -> w
      | None -> source_width t src)
  | src -> source_width t src

let check_operand t ports ~consumer (o : operand) =
  if o.lo < 0 || o.hi < o.lo then
    invalid "node %d: operand %a has a bad bit range" consumer.id Operand.pp o;
  (match o.src with
  | Node id ->
      if id < 0 || id >= Array.length t.nodes then
        invalid "node %d reads undefined node %d" consumer.id id;
      if id >= consumer.id then
        invalid "node %d reads node %d, breaking topological order"
          consumer.id id
  | Input n ->
      if not (Hashtbl.mem ports n) then
        invalid "node %d reads undefined input %s" consumer.id n
  | Const _ -> ());
  let sw = indexed_width t ports o.src in
  if o.hi >= sw then
    invalid "node %d: operand %a exceeds source width %d" consumer.id
      Operand.pp o sw

let check_arity n ~expected =
  let got = List.length n.operands in
  if not (List.mem got expected) then
    invalid "node %d (%s): arity %d not allowed" n.id (kind_to_string n.kind)
      got

let check_node t ports n =
  if n.width < 1 then invalid "node %d: width must be >= 1" n.id;
  List.iter (check_operand t ports ~consumer:n) n.operands;
  let operand_width i = Operand.width (List.nth n.operands i) in
  (match n.kind with
  | Add ->
      check_arity n ~expected:[ 2; 3 ];
      if List.length n.operands = 3 && operand_width 2 <> 1 then
        invalid "node %d: carry-in operand must be 1 bit" n.id
  | Sub | Mul | Max | Min | And | Or | Xor -> check_arity n ~expected:[ 2 ]
  | Lt | Le | Gt | Ge | Eq | Neq ->
      check_arity n ~expected:[ 2 ];
      if n.width <> 1 then
        invalid "node %d: comparison result must be 1 bit" n.id
  | Neg | Not | Wire -> check_arity n ~expected:[ 1 ]
  | Reduce_or ->
      check_arity n ~expected:[ 1 ];
      if n.width <> 1 then
        invalid "node %d: reduce_or result must be 1 bit" n.id
  | Gate ->
      check_arity n ~expected:[ 2 ];
      if operand_width 1 <> 1 then
        invalid "node %d: gate control must be 1 bit" n.id
  | Mux ->
      check_arity n ~expected:[ 3 ];
      if operand_width 0 <> 1 then
        invalid "node %d: mux select must be 1 bit" n.id
  | Concat ->
      if n.operands = [] then invalid "node %d: empty concat" n.id;
      let sum = Hls_util.List_ext.sum_by Operand.width n.operands in
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
      let sw = indexed_width t ports o.src in
      if o.hi >= sw then
        invalid "output %s exceeds source width %d" name sw)
    t.outputs

let validate_result t =
  match validate t with () -> Ok () | exception Invalid m -> Error m

let pp_node t ppf (n : node) =
  ignore t;
  Format.fprintf ppf "n%d%s: %s/%d %s <- %a" n.id
    (if n.label = "" then "" else Printf.sprintf "(%s)" n.label)
    (kind_to_string n.kind) n.width
    (match n.signedness with Unsigned -> "u" | Signed -> "s")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Operand.pp)
    n.operands

let pp ppf t =
  Format.fprintf ppf "@[<v>graph %s@ inputs: %a@ " t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf p -> Format.fprintf ppf "%s/%d" p.port_name p.port_width))
    t.inputs;
  Array.iter (fun n -> Format.fprintf ppf "%a@ " (pp_node t) n) t.nodes;
  Format.fprintf ppf "outputs: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (name, o) -> Format.fprintf ppf "%s <- %a" name Operand.pp o))
    t.outputs

let digest t =
  Digest.to_hex (Digest.string (t.name ^ "\n" ^ Format.asprintf "%a" pp t))
