open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Bv = Hls_bitvec

type env = (string * Bv.t) list

type trace = { node_values : Bv.t array; outputs : (string * Bv.t) list }

let input_value graph ~inputs name =
  match List.assoc_opt name inputs with
  | None ->
      invalid_arg (Printf.sprintf "Hls_sim: missing value for input %s" name)
  | Some v ->
      let p = Graph.input_exn graph name in
      if Bv.width v <> p.port_width then
        invalid_arg
          (Printf.sprintf "Hls_sim: input %s has width %d, expected %d" name
             (Bv.width v) p.port_width)
      else v

(* Raw (sliced, unextended) value of an operand. *)
let raw graph node_values ~inputs (o : operand) =
  let src_value =
    match o.src with
    | Input n -> input_value graph ~inputs n
    | Node id -> node_values.(id)
    | Const bv -> bv
  in
  Bv.slice src_value ~hi:o.hi ~lo:o.lo

let extend (o : operand) v ~width =
  if Bv.width v >= width then Bv.truncate v ~width
  else
    match o.ext with
    | Zext -> Bv.zero_extend v ~width
    | Sext -> Bv.sign_extend v ~width

(* Extend both comparison operands to a common width honouring each
   operand's own extension mode, then compare per [signedness]. *)
let compare2 signedness a_op a b_op b =
  let w = max (Bv.width a) (Bv.width b) + 1 in
  let a = extend a_op a ~width:w and b = extend b_op b ~width:w in
  match signedness with
  | Unsigned -> Bv.compare_unsigned a b
  | Signed -> Bv.compare_signed a b

let bool_bit b = if b then Bv.ones 1 else Bv.zero 1

let eval_node graph node_values ~inputs (n : node) =
  let raw_op i = raw graph node_values ~inputs (List.nth n.operands i) in
  let op i = List.nth n.operands i in
  let ext_op ?width i =
    let width = Option.value width ~default:n.width in
    extend (op i) (raw_op i) ~width
  in
  let w = n.width in
  match n.kind with
  | Add ->
      let sum = Bv.add (ext_op 0) (ext_op 1) in
      let cin =
        match n.operands with
        | [ _; _; _ ] -> Bv.get (raw_op 2) 0
        | _ -> false
      in
      if cin then Bv.add sum (Bv.of_int ~width:w 1) else sum
  | Sub -> Bv.sub (ext_op 0) (ext_op 1)
  | Mul ->
      let a = raw_op 0 and b = raw_op 1 in
      let product =
        match n.signedness with
        | Unsigned -> Bv.mul a b
        | Signed -> Bv.mul_signed a b
      in
      let pw = Bv.width product in
      if pw >= w then Bv.truncate product ~width:w
      else if n.signedness = Signed then Bv.sign_extend product ~width:w
      else Bv.zero_extend product ~width:w
  | Neg -> Bv.neg (ext_op 0)
  | Lt -> bool_bit (compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) < 0)
  | Le -> bool_bit (compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) <= 0)
  | Gt -> bool_bit (compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) > 0)
  | Ge -> bool_bit (compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) >= 0)
  | Eq -> bool_bit (compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) = 0)
  | Neq -> bool_bit (compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) <> 0)
  | Max ->
      if compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) >= 0 then
        ext_op 0
      else ext_op 1
  | Min ->
      if compare2 n.signedness (op 0) (raw_op 0) (op 1) (raw_op 1) <= 0 then
        ext_op 0
      else ext_op 1
  | Not -> Bv.lognot (ext_op 0)
  | And -> Bv.logand (ext_op 0) (ext_op 1)
  | Or -> Bv.logor (ext_op 0) (ext_op 1)
  | Xor -> Bv.logxor (ext_op 0) (ext_op 1)
  | Gate -> if Bv.get (raw_op 1) 0 then ext_op 0 else Bv.zero w
  | Mux -> if Bv.get (raw_op 0) 0 then ext_op 1 else ext_op 2
  | Concat ->
      List.fold_left
        (fun acc o ->
          let v = raw graph node_values ~inputs o in
          match acc with
          | None -> Some v
          | Some lo -> Some (Bv.concat ~hi:v ~lo))
        None n.operands
      |> Option.get
  | Reduce_or ->
      let v = raw_op 0 in
      let any = ref false in
      for i = 0 to Bv.width v - 1 do
        if Bv.get v i then any := true
      done;
      bool_bit !any
  | Wire -> ext_op 0

let run graph ~inputs =
  let count = Graph.node_count graph in
  let node_values = Array.make count (Bv.zero 1) in
  Graph.iter_nodes
    (fun n -> node_values.(n.id) <- eval_node graph node_values ~inputs n)
    graph;
  let outputs =
    List.map
      (fun (name, o) -> (name, raw graph node_values ~inputs o))
      graph.Graph.outputs
  in
  { node_values; outputs }

let outputs graph ~inputs = (run graph ~inputs).outputs

let operand_value graph trace ~inputs ~width o =
  extend o (raw graph trace.node_values ~inputs o) ~width

let random_inputs graph prng =
  List.map
    (fun p -> (p.port_name, Bv.random ~width:p.port_width prng))
    graph.Graph.inputs
