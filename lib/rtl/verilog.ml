(** Structural Verilog emission of a gate-level netlist, plus a
    self-checking testbench generator.

    The netlist's cells map one-to-one onto primitive instances (assign
    expressions for combinational cells, always-blocks for the
    flip-flops), so what is emitted is exactly what {!Netlist}'s simulator
    executed — any external Verilog simulator replays the same hardware.
    {!testbench} wraps a design with golden vectors captured from the
    behavioural reference, giving a push-button cross-check in a standard
    toolchain.

    Both printers write straight into one [Buffer]: strings and
    {!Hls_util.Decimal.add_int}'s digits, no format interpretation per
    line and no intermediate string per net reference. *)

module N = Netlist

let emit ?(name = "design") (nl : N.t) =
  let buf = Rtl_text.create nl in
  let s = Buffer.add_string buf and c = Buffer.add_char buf in
  let d = Hls_util.Decimal.add_int buf in
  let w k =
    s "n[";
    d k;
    c ']'
  in
  let assign y =
    s "  assign ";
    w y;
    s " = "
  in
  let binary y a op b =
    assign y;
    w a;
    s op;
    w b;
    s ";\n"
  in
  let cells = N.cells nl in
  let inputs = N.by_name (N.input_ports nl) in
  let outputs = N.by_name (N.output_ports nl) in
  s "module ";
  s name;
  s " (\n  input wire clk";
  let declare dir (p : N.port) =
    s dir;
    d (p.width - 1);
    s ":0] ";
    s p.port
  in
  List.iter (declare ",\n  input wire [") inputs;
  List.iter (declare ",\n  output wire [") outputs;
  s "\n);\n\n";
  (* One wire per net. *)
  s "  wire [";
  d (N.net_count nl - 1);
  s ":0] n; // net bundle\n";
  (* Input pins. *)
  List.iter
    (fun (p : N.port) ->
      List.iter
        (fun (bit, net) ->
          assign net;
          s p.port;
          c '[';
          d bit;
          s "];\n")
        p.bits)
    inputs;
  (* Cells. *)
  List.iter
    (function
      | N.Const_cell { value; y } ->
          assign y;
          s (if value then "1'b1;\n" else "1'b0;\n")
      | N.Not_cell { a; y } ->
          assign y;
          c '~';
          w a;
          s ";\n"
      | N.And_cell { a; b; y } -> binary y a " & " b
      | N.Or_cell { a; b; y } -> binary y a " | " b
      | N.Xor_cell { a; b; y } -> binary y a " ^ " b
      | N.Mux_cell { sel; a; b; y } ->
          assign y;
          w sel;
          s " ? ";
          w a;
          s " : ";
          w b;
          s ";\n"
      | N.Fa_cell { a; b; cin; sum; cout } ->
          assign sum;
          w a;
          s " ^ ";
          w b;
          s " ^ ";
          w cin;
          s ";\n";
          assign cout;
          let pair x y =
            c '(';
            w x;
            s " & ";
            w y;
            c ')'
          in
          pair a b;
          s " | ";
          pair a cin;
          s " | ";
          pair b cin;
          s ";\n"
      | N.Dff_cell _ -> ())
    cells;
  (* Flip-flops, numbered in cell order: the net is driven by a reg
     shadow. *)
  let k = ref 0 in
  List.iter
    (function
      | N.Dff_cell { d = dn; en; q; init } ->
          let r () =
            c 'r';
            d !k
          in
          s "  reg ";
          r ();
          s (if init then " = 1'b1;\n" else " = 1'b0;\n");
          assign q;
          r ();
          s ";\n  always @(posedge clk) ";
          (match en with
          | None -> ()
          | Some e ->
              s "if (";
              w e;
              s ") ");
          r ();
          s " <= ";
          w dn;
          s ";\n";
          incr k
      | _ -> ())
    cells;
  (* Output pins. *)
  List.iter
    (fun (p : N.port) ->
      List.iter
        (fun (bit, net) ->
          s "  assign ";
          s p.port;
          c '[';
          d bit;
          s "] = ";
          w net;
          s ";\n")
        p.bits)
    outputs;
  s "\nendmodule\n";
  Buffer.contents buf

(** A self-checking testbench: drives [vectors] (input valuation +
    expected outputs captured from the behavioural simulator), runs the
    DUT [cycles] clock cycles per vector, and reports PASS/FAIL. *)
let testbench ?(name = "design") (nl : N.t) ~cycles
    ~(vectors :
       ((string * Hls_bitvec.t) list * (string * Hls_bitvec.t) list) list) =
  let buf = Buffer.create 4096 in
  let s = Buffer.add_string buf in
  let d = Hls_util.Decimal.add_int buf in
  let literal bv =
    d (Hls_bitvec.width bv);
    s "'b";
    s (Hls_bitvec.to_string bv)
  in
  let in_ports = N.input_ports nl and out_ports = N.output_ports nl in
  s "`timescale 1ns/1ps\nmodule ";
  s name;
  s "_tb;\n";
  s "  reg clk = 0;\n  always #5 clk = ~clk;\n";
  let declare kind (p : N.port) =
    s kind;
    d (p.width - 1);
    s ":0] ";
    s p.port;
    s ";\n"
  in
  List.iter (declare "  reg [") in_ports;
  List.iter (declare "  wire [") out_ports;
  let connect (p : N.port) =
    s ", .";
    s p.port;
    s "(";
    s p.port;
    s ")"
  in
  s "  ";
  s name;
  s " dut (.clk(clk)";
  List.iter connect in_ports;
  List.iter connect out_ports;
  s ");\n";
  s "  integer errors = 0;\n";
  s "  initial begin\n";
  List.iter
    (fun (inputs, expected) ->
      List.iter
        (fun (p, v) ->
          s "    ";
          s p;
          s " = ";
          literal v;
          s ";\n")
        inputs;
      s "    repeat (";
      d cycles;
      s ") @(posedge clk);\n    #1;\n";
      List.iter
        (fun (p, v) ->
          s "    if (";
          s p;
          s " !== ";
          literal v;
          s ") begin errors = errors + 1; $display(\"FAIL ";
          s p;
          s ": %b\", ";
          s p;
          s "); end\n")
        expected)
    vectors;
  s
    "    if (errors == 0) $display(\"PASS\"); else $display(\"%0d \
     FAILURES\", errors);\n";
  s "    $finish;\n  end\nendmodule\n";
  Buffer.contents buf
