(** Structural VHDL emission of a gate-level netlist — the counterpart of
    {!Verilog} for VHDL flows.  Combinational cells become concurrent
    signal assignments over a `std_logic_vector` net bundle; flip-flops
    become clocked processes. *)

module N = Netlist

let emit ?(name = "design") (nl : N.t) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let id = Hls_util.Vhdl_ident.of_string in
  let name = id name in
  let inputs = N.by_name (N.input_ports nl) in
  let outputs = N.by_name (N.output_ports nl) in
  add "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
  add "entity %s is\n  port (\n    clk : in std_logic" name;
  List.iter
    (fun (p : N.port) ->
      add ";\n    %s : in std_logic_vector(%d downto 0)" (id p.port)
        (p.width - 1))
    inputs;
  List.iter
    (fun (p : N.port) ->
      add ";\n    %s : out std_logic_vector(%d downto 0)" (id p.port)
        (p.width - 1))
    outputs;
  add "\n  );\nend %s;\n\n" name;
  add "architecture structural of %s is\n" name;
  add "  signal n : std_logic_vector(%d downto 0);\n" (N.net_count nl - 1);
  let regs =
    List.filter_map
      (function
        | N.Dff_cell { d; en; q; init } -> Some (d, en, q, init)
        | _ -> None)
      (N.cells nl)
  in
  List.iteri
    (fun k (_, _, _, init) ->
      add "  signal r%d : std_logic := '%d';\n" k (if init then 1 else 0))
    regs;
  add "begin\n";
  let w k = Printf.sprintf "n(%d)" k in
  List.iter
    (fun (p : N.port) ->
      List.iter
        (fun (bit, net) -> add "  %s <= %s(%d);\n" (w net) (id p.port) bit)
        p.bits)
    inputs;
  List.iter
    (fun cell ->
      match cell with
      | N.Const_cell { value; y } ->
          add "  %s <= '%d';\n" (w y) (if value then 1 else 0)
      | N.Not_cell { a; y } -> add "  %s <= not %s;\n" (w y) (w a)
      | N.And_cell { a; b; y } ->
          add "  %s <= %s and %s;\n" (w y) (w a) (w b)
      | N.Or_cell { a; b; y } -> add "  %s <= %s or %s;\n" (w y) (w a) (w b)
      | N.Xor_cell { a; b; y } ->
          add "  %s <= %s xor %s;\n" (w y) (w a) (w b)
      | N.Mux_cell { sel; a; b; y } ->
          add "  %s <= %s when %s = '1' else %s;\n" (w y) (w a) (w sel) (w b)
      | N.Fa_cell { a; b; cin; sum; cout } ->
          add "  %s <= %s xor %s xor %s;\n" (w sum) (w a) (w b) (w cin);
          add "  %s <= (%s and %s) or (%s and %s) or (%s and %s);\n" (w cout)
            (w a) (w b) (w a) (w cin) (w b) (w cin)
      | N.Dff_cell _ -> ())
    (N.cells nl);
  (* Flip-flops: init handled by the signal default; a reset pin is not
     modelled (the FSM ring starts from its declared init values). *)
  List.iteri
    (fun k (d, en, q, _) ->
      add "  %s <= r%d;\n" (w q) k;
      add "  reg%d : process (clk)\n  begin\n" k;
      add "    if rising_edge(clk) then\n";
      (match en with
      | None -> add "      r%d <= %s;\n" k (w d)
      | Some e ->
          add "      if %s = '1' then r%d <= %s; end if;\n" (w e) k (w d));
      add "    end if;\n  end process reg%d;\n" k)
    regs;
  List.iter
    (fun (p : N.port) ->
      List.iter
        (fun (bit, net) -> add "  %s(%d) <= %s;\n" (id p.port) bit (w net))
        p.bits)
    outputs;
  add "end structural;\n";
  Buffer.contents buf
