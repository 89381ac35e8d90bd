(* The one graph-to-graph rebuild under kernel extraction, fragmentation
   and every behavioural transformation; see rewrite.mli. *)

open Types

type ctx = {
  b : Builder.t;
  map : operand array;
}

(* The map entry of a node not rewritten yet (or dropped by [prune]): no
   real operand selects bit -1, and entries are compared by identity. *)
let unset = { src = Input ""; hi = -1; lo = -1; ext = Zext }

let map_operand ctx (o : operand) =
  match o.src with
  | Input _ | Const _ -> o
  | Node id ->
      let base = ctx.map.(id) in
      if base == unset then
        invalid_arg
          (Printf.sprintf "Rewrite.map_operand: node %d not rewritten yet" id);
      (* [base] covers the old node's full width starting at base.lo; an
         operand selecting all of it with the same extension is [base]
         itself (operands are immutable, so sharing one is safe). *)
      if o.lo = 0 && base.hi = base.lo + o.hi && o.ext = base.ext then base
      else { base with hi = base.lo + o.hi; lo = base.lo + o.lo; ext = o.ext }

let rec map_operands ctx = function
  | [] -> []
  | o :: tl ->
      let o = map_operand ctx o in
      o :: map_operands ctx tl

let run ?name ?capacity g ~f =
  let b =
    Builder.create_sized
      ~capacity:(Option.value capacity ~default:(Graph.node_count g))
      ~name:(Option.value name ~default:(Graph.name g))
  in
  List.iter
    (fun p ->
      ignore
        (Builder.input b p.port_name ~width:p.port_width ~signed:p.port_signed))
    g.Graph.inputs;
  let ctx = { b; map = Array.make (Graph.node_count g) unset } in
  Graph.iter_nodes (fun n -> ctx.map.(n.id) <- f ctx n) g;
  List.iter
    (fun (name, o) -> Builder.output b name (map_operand ctx o))
    g.Graph.outputs;
  Builder.finish b

let copy ctx (n : node) =
  Builder.node ctx.b n.kind ~width:n.width ~signedness:n.signedness
    ~label:n.label ?origin:n.origin
    (map_operands ctx n.operands)

let prune g =
  let live = Array.make (Graph.node_count g) false in
  let rec mark (o : operand) =
    match o.src with
    | Input _ | Const _ -> ()
    | Node id ->
        if not live.(id) then begin
          live.(id) <- true;
          List.iter mark (Graph.node g id).operands
        end
  in
  List.iter (fun (_, o) -> mark o) g.Graph.outputs;
  run g ~f:(fun ctx n -> if live.(n.id) then copy ctx n else unset)
