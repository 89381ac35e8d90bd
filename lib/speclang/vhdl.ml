(** Behavioural VHDL emission (the paper's Fig. 1a / Fig. 2a style).

    Emits one entity with the graph's ports and a single process computing
    every node into a variable, using ieee.numeric_std arithmetic.  All
    graph kinds are expressible, including the kernel glue, so both the
    original and the transformed specifications can be written out and fed
    to an external synthesis flow. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand

let indent = "    "

let literal bv =
  Printf.sprintf "\"%s\"" (Hls_bitvec.to_string bv)

let emit graph =
  let id = Hls_util.Vhdl_ident.of_string in
  let names = Array.map id (Names.assign graph) in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let entity = id (Names.sanitize (Graph.name graph)) in
  add "library ieee;\n";
  add "use ieee.std_logic_1164.all;\n";
  add "use ieee.numeric_std.all;\n\n";
  add "entity %s is\n" entity;
  add "%sport (\n" indent;
  add "%s%sclk : in std_logic;\n" indent indent;
  List.iter
    (fun p ->
      add "%s%s%s : in std_logic_vector(%d downto 0);\n" indent indent
        (id p.port_name) (p.port_width - 1))
    graph.Graph.inputs;
  List.iteri
    (fun i (name, o) ->
      add "%s%s%s : out std_logic_vector(%d downto 0)%s\n" indent indent
        (id name)
        (Operand.width o - 1)
        (if i = List.length graph.Graph.outputs - 1 then "" else ";"))
    graph.Graph.outputs;
  add "%s);\nend %s;\n\n" indent entity;
  add "architecture beh of %s is\nbegin\n" entity;
  add "%smain : process (clk)\n" indent;
  Graph.iter_nodes
    (fun n ->
      add "%s%svariable %s : std_logic_vector(%d downto 0);\n" indent indent
        names.(n.id) (n.width - 1))
    graph;
  add "%sbegin\n" indent;
  let stmt fmt = Printf.ksprintf (fun s -> add "%s%s%s\n" indent indent s) fmt in
  (* Raw sliced source text of an operand. *)
  let src (o : operand) =
    let base, w =
      match o.src with
      | Input name -> (id name, Graph.source_width graph o.src)
      | Node n -> (names.(n), (Graph.node graph n).width)
      | Const bv -> (literal bv, Hls_bitvec.width bv)
    in
    if o.lo = 0 && o.hi = w - 1 then base
    else Printf.sprintf "%s(%d downto %d)" base o.hi o.lo
  in
  (* Operand as a numeric_std value resized to [width] honouring its
     extension mode. *)
  let num ~width (o : operand) =
    match o.ext with
    | Zext -> Printf.sprintf "resize(unsigned(%s), %d)" (src o) width
    | Sext ->
        Printf.sprintf "unsigned(resize(signed(%s), %d))" (src o) width
  in
  let slv e = Printf.sprintf "std_logic_vector(%s)" e in
  let bit (o : operand) = Printf.sprintf "%s(%d)" (
      match o.src with
      | Input name -> id name
      | Node n -> names.(n)
      | Const bv -> literal bv) o.lo
  in
  let cmp_expr n op =
    let a = List.nth n.operands 0 and b = List.nth n.operands 1 in
    let w = max (Operand.width a) (Operand.width b) + 1 in
    let cast o =
      match n.signedness with
      | Unsigned -> num ~width:w o
      | Signed -> Printf.sprintf "signed(%s)" (slv (num ~width:w o))
    in
    Printf.sprintf "(others => '1') when %s %s %s else (others => '0')"
      (cast a) op (cast b)
  in
  Graph.iter_nodes
    (fun n ->
      let name = names.(n.id) in
      let o i = List.nth n.operands i in
      let w = n.width in
      match n.kind with
      | Add -> (
          match n.operands with
          | [ a; b ] ->
              stmt "%s := %s;" name
                (slv (Printf.sprintf "%s + %s" (num ~width:w a) (num ~width:w b)))
          | [ a; b; c ] ->
              stmt "%s := %s;" name
                (slv
                   (Printf.sprintf "%s + %s + unsigned'(\"\" & %s)"
                      (num ~width:w a) (num ~width:w b) (bit c)))
          | _ -> assert false)
      | Sub ->
          stmt "%s := %s;" name
            (slv (Printf.sprintf "%s - %s" (num ~width:w (o 0)) (num ~width:w (o 1))))
      | Mul ->
          let a = o 0 and b = o 1 in
          let cast o =
            match n.signedness with
            | Unsigned -> Printf.sprintf "unsigned(%s)" (src o)
            | Signed -> Printf.sprintf "signed(%s)" (src o)
          in
          stmt "%s := %s;" name
            (slv
               (Printf.sprintf "resize(%s * %s, %d)" (cast a) (cast b) w))
      | Neg ->
          stmt "%s := %s;" name
            (slv (Printf.sprintf "0 - %s" (num ~width:w (o 0))))
      | Lt -> stmt "%s := %s;" name (cmp_expr n "<")
      | Le -> stmt "%s := %s;" name (cmp_expr n "<=")
      | Gt -> stmt "%s := %s;" name (cmp_expr n ">")
      | Ge -> stmt "%s := %s;" name (cmp_expr n ">=")
      | Eq -> stmt "%s := %s;" name (cmp_expr n "=")
      | Neq -> stmt "%s := %s;" name (cmp_expr n "/=")
      | Max | Min ->
          let op = if n.kind = Max then ">=" else "<=" in
          let a = o 0 and b = o 1 in
          let wc = max (Operand.width a) (Operand.width b) + 1 in
          let cast o =
            match n.signedness with
            | Unsigned -> num ~width:wc o
            | Signed -> Printf.sprintf "signed(%s)" (slv (num ~width:wc o))
          in
          stmt "%s := %s when %s %s %s else %s;" name
            (slv (num ~width:w a)) (cast a) op (cast b)
            (slv (num ~width:w b))
      | Not ->
          stmt "%s := not %s;" name (slv (num ~width:w (o 0)))
      | And | Or | Xor ->
          stmt "%s := %s %s %s;" name
            (slv (num ~width:w (o 0)))
            (kind_to_string n.kind)
            (slv (num ~width:w (o 1)))
      | Gate ->
          stmt "%s := %s when %s = '1' else (others => '0');" name
            (slv (num ~width:w (o 0)))
            (bit (o 1))
      | Mux ->
          stmt "%s := %s when %s = '1' else %s;" name
            (slv (num ~width:w (o 1)))
            (bit (o 0))
            (slv (num ~width:w (o 2)))
      | Concat ->
          let pieces = List.rev_map src n.operands in
          stmt "%s := %s;" name (String.concat " & " pieces)
      | Reduce_or ->
          stmt "%s := \"1\" when unsigned(%s) /= 0 else \"0\";" name
            (src (o 0))
      | Wire -> stmt "%s := %s;" name (slv (num ~width:w (o 0))))
    graph;
  List.iter
    (fun (name, o) -> stmt "%s <= %s;" (id name) (src o))
    graph.Graph.outputs;
  add "%send process main;\n" indent;
  add "end beh;\n";
  Buffer.contents buf
