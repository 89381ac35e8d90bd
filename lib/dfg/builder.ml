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
  mutable nodes : node array;
      (* growable: the first [next_id] slots are the nodes so far, and a
         slot once written is never written again *)
  mutable next_id : int;
  capacity : int;  (* initial [nodes] length *)
}

let create_sized ~capacity ~name =
  {
    graph_name = name;
    inputs = [];
    outputs = [];
    port_names = Hashtbl.create 16;
    output_names = Hashtbl.create 16;
    nodes = [||];
    next_id = 0;
    capacity = Int.max 1 capacity;
  }

let create ~name = create_sized ~capacity:16 ~name

(** Declare a primary input port and return a full-range operand over it. *)
let input ?(signed = Unsigned) t name ~width =
  if width < 1 then invalid_arg "Builder.input: width must be >= 1";
  if Hashtbl.mem t.port_names name then
    invalid_arg (Printf.sprintf "Builder.input: duplicate port %s" name);
  Hashtbl.add t.port_names name ();
  let p = { port_name = name; port_width = width; port_signed = signed } in
  t.inputs <- p :: t.inputs;
  Operand.of_input ?ext:(if signed = Signed then Some Sext else None) p

(** Create a node with every field given and return its id: no
    optional-argument boxes and no result operand. *)
let append t kind ~signedness ~width ~label ~origin operands =
  let id = t.next_id in
  let n = { id; kind; signedness; width; operands; label; origin } in
  let len = Array.length t.nodes in
  if id = len then begin
    (* The old array is never written again, so a finished graph may
       share it. *)
    let nodes = Array.make (if len = 0 then t.capacity else 2 * len) n in
    Array.blit t.nodes 0 nodes 0 len;
    t.nodes <- nodes
  end
  else t.nodes.(id) <- n;
  t.next_id <- id + 1;
  id

(** Create a node and return a full-range operand over its result. *)
let node ?(signedness = Unsigned) ?(label = "") ?origin t kind ~width operands
    =
  let id = append t kind ~signedness ~width ~label ~origin operands in
  {
    src = Node id;
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
      nodes =
        (if Array.length t.nodes = t.next_id then t.nodes
         else Array.sub t.nodes 0 t.next_id);
      cached_index = Atomic.make None;
    }
  in
  Graph.validate g;
  g
