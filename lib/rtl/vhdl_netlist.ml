(** Structural VHDL emission of a gate-level netlist — the counterpart of
    {!Verilog} for VHDL flows.  Combinational cells become concurrent
    signal assignments over a `std_logic_vector` net bundle; flip-flops
    become clocked processes.  Written straight into one [Buffer], like
    {!Verilog.emit}. *)

module N = Netlist

let emit ?(name = "design") (nl : N.t) =
  let buf = Rtl_text.create nl in
  let s = Buffer.add_string buf and c = Buffer.add_char buf in
  let d = Hls_util.Decimal.add_int buf in
  let w k =
    s "n(";
    d k;
    c ')'
  in
  let drive y =
    s "  ";
    w y;
    s " <= "
  in
  let binary y a op b =
    drive y;
    w a;
    s op;
    w b;
    s ";\n"
  in
  let id = Hls_util.Vhdl_ident.of_string in
  let name = id name in
  let inputs = N.by_name (N.input_ports nl) in
  let outputs = N.by_name (N.output_ports nl) in
  s "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
  s "entity ";
  s name;
  s " is\n  port (\n    clk : in std_logic";
  let declare dir (p : N.port) =
    s ";\n    ";
    s (id p.port);
    s dir;
    d (p.width - 1);
    s " downto 0)"
  in
  List.iter (declare " : in std_logic_vector(") inputs;
  List.iter (declare " : out std_logic_vector(") outputs;
  s "\n  );\nend ";
  s name;
  s ";\n\n";
  s "architecture structural of ";
  s name;
  s " is\n";
  s "  signal n : std_logic_vector(";
  d (N.net_count nl - 1);
  s " downto 0);\n";
  let cells = N.cells nl in
  let k = ref 0 in
  List.iter
    (function
      | N.Dff_cell { init; _ } ->
          s "  signal r";
          d !k;
          s
            (if init then " : std_logic := '1';\n"
             else " : std_logic := '0';\n");
          incr k
      | _ -> ())
    cells;
  s "begin\n";
  List.iter
    (fun (p : N.port) ->
      let port = id p.port in
      List.iter
        (fun (bit, net) ->
          drive net;
          s port;
          c '(';
          d bit;
          s ");\n")
        p.bits)
    inputs;
  List.iter
    (function
      | N.Const_cell { value; y } ->
          drive y;
          s (if value then "'1';\n" else "'0';\n")
      | N.Not_cell { a; y } ->
          drive y;
          s "not ";
          w a;
          s ";\n"
      | N.And_cell { a; b; y } -> binary y a " and " b
      | N.Or_cell { a; b; y } -> binary y a " or " b
      | N.Xor_cell { a; b; y } -> binary y a " xor " b
      | N.Mux_cell { sel; a; b; y } ->
          drive y;
          w a;
          s " when ";
          w sel;
          s " = '1' else ";
          w b;
          s ";\n"
      | N.Fa_cell { a; b; cin; sum; cout } ->
          drive sum;
          w a;
          s " xor ";
          w b;
          s " xor ";
          w cin;
          s ";\n";
          drive cout;
          let pair x y =
            c '(';
            w x;
            s " and ";
            w y;
            c ')'
          in
          pair a b;
          s " or ";
          pair a cin;
          s " or ";
          pair b cin;
          s ";\n"
      | N.Dff_cell _ -> ())
    cells;
  (* Flip-flops: init handled by the signal default; a reset pin is not
     modelled (the FSM ring starts from its declared init values). *)
  let k = ref 0 in
  List.iter
    (function
      | N.Dff_cell { d = dn; en; q; _ } ->
          let r () =
            c 'r';
            d !k
          in
          drive q;
          r ();
          s ";\n  reg";
          d !k;
          s " : process (clk)\n  begin\n";
          s "    if rising_edge(clk) then\n";
          (match en with
          | None -> s "      "
          | Some e ->
              s "      if ";
              w e;
              s " = '1' then ");
          r ();
          s " <= ";
          w dn;
          s (if Option.is_none en then ";\n" else "; end if;\n");
          s "    end if;\n  end process reg";
          d !k;
          s ";\n";
          incr k
      | _ -> ())
    cells;
  List.iter
    (fun (p : N.port) ->
      let port = id p.port in
      List.iter
        (fun (bit, net) ->
          s "  ";
          s port;
          c '(';
          d bit;
          s ") <= ";
          w net;
          s ";\n")
        p.bits)
    outputs;
  s "end structural;\n";
  Buffer.contents buf
