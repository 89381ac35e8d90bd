(** The specification transformation as it was before its one-pass
    rewrite, kept verbatim as an oracle: the list-based graph builder
    ({!Builder}), the closure-per-node rewriter ({!Rewrite}), the
    validator ({!validate}) and [Transform.build] itself, which labels
    fragments through [String.concat] and leaves the dependency net to a
    separate {!Hls_timing.Bitnet.build} over the finished graph.

    The test suite checks [Hls_fragment.Transform.apply] against {!build}
    (graph digest, windows, window sources and every net array) and
    [Hls_dfg.Graph.validate] against {!validate} (message for message);
    [bench timing] prices the one-pass transform against {!build}. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module Mobility = Hls_fragment.Mobility
module Transform = Hls_fragment.Transform

(* ---- Graph.validate ---- *)

let invalid fmt = Format.kasprintf (fun s -> raise (Graph.Invalid s)) fmt

let indexed_width t ports = function
  | Input n as src -> (
      match Hashtbl.find_opt ports n with
      | Some w -> w
      | None -> Graph.source_width t src)
  | src -> Graph.source_width t src

let check_operand (t : Graph.t) ports ~consumer (o : operand) =
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

let validate (t : Graph.t) =
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
  match validate t with () -> Ok () | exception Graph.Invalid m -> Error m

(* ---- Builder ---- *)

module Builder = struct
  type t = {
    graph_name : string;
    mutable inputs : port list;  (* reversed *)
    mutable outputs : (string * operand) list;  (* reversed *)
    port_names : (string, unit) Hashtbl.t;
    output_names : (string, unit) Hashtbl.t;
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

  let input ?(signed = Unsigned) t name ~width =
    if width < 1 then invalid_arg "Builder.input: width must be >= 1";
    if Hashtbl.mem t.port_names name then
      invalid_arg (Printf.sprintf "Builder.input: duplicate port %s" name);
    Hashtbl.add t.port_names name ();
    let p = { port_name = name; port_width = width; port_signed = signed } in
    t.inputs <- p :: t.inputs;
    Operand.of_input ?ext:(if signed = Signed then Some Sext else None) p

  let node ?(signedness = Unsigned) ?(label = "") ?origin t kind ~width
      operands =
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

  let output t name operand =
    if Hashtbl.mem t.output_names name then
      invalid_arg (Printf.sprintf "Builder.output: duplicate port %s" name);
    Hashtbl.add t.output_names name ();
    t.outputs <- (name, operand) :: t.outputs

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
    validate g;
    g
end

(* ---- Rewrite ---- *)

module Rewrite = struct
  type ctx = { b : Builder.t; map : operand array }

  let unset = { src = Input ""; hi = -1; lo = -1; ext = Zext }

  let map_operand ctx (o : operand) =
    match o.src with
    | Input _ | Const _ -> o
    | Node id ->
        let base = ctx.map.(id) in
        if base == unset then
          invalid_arg
            (Printf.sprintf "Rewrite.map_operand: node %d not rewritten yet" id);
        { base with hi = base.lo + o.hi; lo = base.lo + o.lo; ext = o.ext }

  let run ?name g ~f =
    let b = Builder.create ~name:(Option.value name ~default:(Graph.name g)) in
    List.iter
      (fun p ->
        ignore
          (Builder.input b p.port_name ~width:p.port_width
             ~signed:p.port_signed))
      g.Graph.inputs;
    let ctx = { b; map = Array.make (Graph.node_count g) unset } in
    Graph.iter_nodes (fun n -> ctx.map.(n.id) <- f ctx n) g;
    List.iter
      (fun (name, o) -> Builder.output b name (map_operand ctx o))
      g.Graph.outputs;
    Builder.finish b
end

(* ---- Transform.build ---- *)

module B = Builder

let slice_positions (o : operand) ~lo ~hi =
  let w = Operand.width o in
  if lo < w then Some (Operand.reslice o ~hi:(min hi (w - 1)) ~lo)
  else
    match o.ext with
    | Zext -> None
    | Sext -> Some { o with lo = o.hi; ext = Sext }

let mk ctx srcs ?label ?origin ~src kind ~width operands =
  srcs := src :: !srcs;
  B.node ctx.Rewrite.b kind ~width ?label ?origin operands

let free_window plan = (1, plan.Mobility.latency)

let windows_of plan srcs =
  Array.map
    (function
      | Transform.Free -> free_window plan
      | Transform.Frag { src; index } ->
          let f = List.nth plan.Mobility.per_node.(src) index in
          (f.Mobility.f_asap, f.Mobility.f_alap))
    srcs

let build_fragments ctx srcs (n : node) ~mapped_operands frags =
  let op_name = if n.label = "" then "op" ^ string_of_int n.id else n.label in
  let a, bop, cin0 =
    match mapped_operands with
    | [ a; b ] -> (a, b, None)
    | [ a; b; c ] -> (a, b, Some c)
    | _ -> invalid_arg "Transform.build_fragments: malformed add"
  in
  let pieces, _, _ =
    List.fold_left
      (fun (pieces, carry, index) (f : Mobility.frag) ->
        let fw = Mobility.frag_width f in
        let has_carry_out = f.f_hi < n.width - 1 in
        let node_w = if has_carry_out then fw + 1 else fw in
        let fit o =
          match o with
          | None -> None
          | Some o ->
              if Operand.width o >= fw then Some { o with ext = Zext }
              else if o.ext = Sext then
                Some
                  (mk ctx srcs ~src:Transform.Free Wire ~width:fw [ o ])
              else Some o
        in
        let oa = fit (slice_positions a ~lo:f.f_lo ~hi:f.f_hi) in
        let ob = fit (slice_positions bop ~lo:f.f_lo ~hi:f.f_hi) in
        let x = Option.value oa ~default:Operand.zero_bit in
        let y = Option.value ob ~default:Operand.zero_bit in
        let cin = if f.f_lo = 0 then cin0 else carry in
        let operands = match cin with None -> [ x; y ] | Some c -> [ x; y; c ] in
        let label =
          String.concat ""
            [ op_name; "["; string_of_int f.f_hi; ":"; string_of_int f.f_lo; "]" ]
        in
        let origin =
          { orig_op = op_name; orig_lo = f.f_lo; orig_hi = f.f_hi }
        in
        let value =
          mk ctx srcs ~label ~origin
            ~src:(Transform.Frag { src = n.id; index }) Add
            ~width:node_w operands
        in
        let sum_slice = Operand.reslice value ~hi:(fw - 1) ~lo:0 in
        let carry_out =
          if has_carry_out then Some (Operand.reslice value ~hi:fw ~lo:fw)
          else None
        in
        (sum_slice :: pieces, carry_out, index + 1))
      ([], None, 0) frags
  in
  let pieces = List.rev pieces in
  match pieces with
  | [ single ] -> single
  | _ ->
      mk ctx srcs ~src:Transform.Free ~label:(op_name ^ ".val")
        Concat ~width:n.width pieces

(** The pre-rewrite fresh fragmentation: the rebuilt graph, then its
    dependency net built separately by {!Hls_timing.Bitnet.build}. *)
let build graph (plan : Mobility.plan) : Transform.t =
  let srcs = ref [] in
  let g =
    Rewrite.run ~name:(Graph.name graph ^ "_frag") graph ~f:(fun ctx n ->
        let mapped_operands = List.map (Rewrite.map_operand ctx) n.operands in
        match (n.kind, plan.per_node.(n.id)) with
        | Add, ([] | [ _ ]) ->
            let src =
              match plan.per_node.(n.id) with
              | [ _ ] -> Transform.Frag { src = n.id; index = 0 }
              | _ -> Transform.Free
            in
            let op_name =
              if n.label = "" then "op" ^ string_of_int n.id else n.label
            in
            mk ctx srcs ~label:op_name
              ~origin:{ orig_op = op_name; orig_lo = 0; orig_hi = n.width - 1 }
              ~src Add ~width:n.width mapped_operands
        | Add, frags -> build_fragments ctx srcs n ~mapped_operands frags
        | _ ->
            mk ctx srcs ~label:n.label ?origin:n.origin ~src:Transform.Free
              n.kind ~width:n.width mapped_operands)
  in
  let window_srcs = Array.of_list (List.rev !srcs) in
  assert (Array.length window_srcs = Graph.node_count g);
  { graph = g; plan; source = graph; windows = windows_of plan window_srcs;
    window_srcs; net = Hls_timing.Bitnet.build g }
