(** Imperative graph builder.

    Nodes receive consecutive ids in creation order and operands may only
    reference already-created nodes, so the finished graph is topologically
    sorted by construction.  [finish] validates the result. *)

open Types

type t = {
  graph_name : string;
  mutable inputs : port list;  (* reversed *)
  mutable outputs : (string * operand) list;  (* reversed *)
  port_names : (string, unit) Hashtbl.t;
      (* declared input names, so a duplicate is found in one lookup *)
  output_names : (string, unit) Hashtbl.t;  (* likewise for outputs *)
  mutable rev_nodes : node list;
  mutable next_id : int;
}

let create ~name =
  {
    graph_name = name;
    inputs = [];
    outputs = [];
    port_names = Hashtbl.create 16;
    output_names = Hashtbl.create 16;
    rev_nodes = [];
    next_id = 0;
  }

(** Declare a primary input port and return a full-range operand over it. *)
let input ?(signed = Unsigned) t name ~width =
  if width < 1 then invalid_arg "Builder.input: width must be >= 1";
  if Hashtbl.mem t.port_names name then
    invalid_arg (Printf.sprintf "Builder.input: duplicate port %s" name);
  Hashtbl.add t.port_names name ();
  let p = { port_name = name; port_width = width; port_signed = signed } in
  t.inputs <- p :: t.inputs;
  Operand.of_input ?ext:(if signed = Signed then Some Sext else None) p

(** Create a node and return a full-range operand over its result. *)
let node ?(signedness = Unsigned) ?(label = "") ?origin t kind ~width operands
    =
  let n =
    { id = t.next_id; kind; signedness; width; operands; label; origin }
  in
  t.rev_nodes <- n :: t.rev_nodes;
  t.next_id <- t.next_id + 1;
  {
    src = Node n.id;
    hi = width - 1;
    lo = 0;
    ext = (if signedness = Signed then Sext else Zext);
  }

(** Bind an output port to an operand. *)
let output t name operand =
  if Hashtbl.mem t.output_names name then
    invalid_arg (Printf.sprintf "Builder.output: duplicate port %s" name);
  Hashtbl.add t.output_names name ();
  t.outputs <- (name, operand) :: t.outputs

(** The id an operand refers to; raises on inputs/constants. *)
let node_id_of operand =
  match operand.src with
  | Node id -> id
  | Input _ | Const _ -> invalid_arg "Builder.node_id_of: not a node operand"

(** {1 Convenience constructors for behavioural specs} *)

let add ?signedness ?label t ~width a b = node ?signedness ?label t Add ~width [ a; b ]

let add_cin ?signedness ?label t ~width a b cin =
  node ?signedness ?label t Add ~width [ a; b; cin ]

let sub ?signedness ?label t ~width a b = node ?signedness ?label t Sub ~width [ a; b ]
let mul ?signedness ?label t ~width a b = node ?signedness ?label t Mul ~width [ a; b ]
let lt ?signedness ?label t a b = node ?signedness ?label t Lt ~width:1 [ a; b ]
let max_ ?signedness ?label t ~width a b = node ?signedness ?label t Max ~width [ a; b ]
let min_ ?signedness ?label t ~width a b = node ?signedness ?label t Min ~width [ a; b ]

let finish t =
  let g =
    {
      Graph.name = t.graph_name;
      inputs = List.rev t.inputs;
      outputs = List.rev t.outputs;
      nodes = Array.of_list (List.rev t.rev_nodes);
      cached_index = Atomic.make None;
    }
  in
  Graph.validate g;
  g
