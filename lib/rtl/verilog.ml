(** Structural Verilog emission of a gate-level netlist, plus a
    self-checking testbench generator.

    The netlist's cells map one-to-one onto primitive instances (assign
    expressions for combinational cells, always-blocks for the
    flip-flops), so what is emitted is exactly what {!Netlist}'s simulator
    executed — any external Verilog simulator replays the same hardware.
    {!testbench} wraps a design with golden vectors captured from the
    behavioural reference, giving a push-button cross-check in a standard
    toolchain. *)

module N = Netlist

let emit ?(name = "design") (nl : N.t) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let cells = N.cells nl in
  let inputs = N.by_name (N.input_ports nl) in
  let outputs = N.by_name (N.output_ports nl) in
  add "module %s (\n  input wire clk" name;
  List.iter
    (fun (p : N.port) -> add ",\n  input wire [%d:0] %s" (p.width - 1) p.port)
    inputs;
  List.iter
    (fun (p : N.port) -> add ",\n  output wire [%d:0] %s" (p.width - 1) p.port)
    outputs;
  add "\n);\n\n";
  (* One wire per net. *)
  add "  wire [%d:0] n; // net bundle\n" (N.net_count nl - 1);
  let w k = Printf.sprintf "n[%d]" k in
  (* Input pins. *)
  List.iter
    (fun (p : N.port) ->
      List.iter
        (fun (bit, net) -> add "  assign %s = %s[%d];\n" (w net) p.port bit)
        p.bits)
    inputs;
  (* Cells. *)
  let regs = ref [] in
  List.iter
    (fun cell ->
      match cell with
      | N.Const_cell { value; y } ->
          add "  assign %s = 1'b%d;\n" (w y) (if value then 1 else 0)
      | N.Not_cell { a; y } -> add "  assign %s = ~%s;\n" (w y) (w a)
      | N.And_cell { a; b; y } ->
          add "  assign %s = %s & %s;\n" (w y) (w a) (w b)
      | N.Or_cell { a; b; y } ->
          add "  assign %s = %s | %s;\n" (w y) (w a) (w b)
      | N.Xor_cell { a; b; y } ->
          add "  assign %s = %s ^ %s;\n" (w y) (w a) (w b)
      | N.Mux_cell { sel; a; b; y } ->
          add "  assign %s = %s ? %s : %s;\n" (w y) (w sel) (w a) (w b)
      | N.Fa_cell { a; b; cin; sum; cout } ->
          add "  assign %s = %s ^ %s ^ %s;\n" (w sum) (w a) (w b) (w cin);
          add "  assign %s = (%s & %s) | (%s & %s) | (%s & %s);\n" (w cout)
            (w a) (w b) (w a) (w cin) (w b) (w cin)
      | N.Dff_cell { d; en; q; init } -> regs := (d, en, q, init) :: !regs)
    cells;
  (* Flip-flops: the net is driven by a reg shadow. *)
  List.iteri
    (fun k (d, en, q, init) ->
      add "  reg r%d = 1'b%d;\n" k (if init then 1 else 0);
      add "  assign %s = r%d;\n" (w q) k;
      (match en with
      | None -> add "  always @(posedge clk) r%d <= %s;\n" k (w d)
      | Some e ->
          add "  always @(posedge clk) if (%s) r%d <= %s;\n" (w e) k (w d)))
    (List.rev !regs);
  (* Output pins. *)
  List.iter
    (fun (p : N.port) ->
      List.iter
        (fun (bit, net) -> add "  assign %s[%d] = %s;\n" p.port bit (w net))
        p.bits)
    outputs;
  add "\nendmodule\n";
  Buffer.contents buf

(** A self-checking testbench: drives [vectors] (input valuation +
    expected outputs captured from the behavioural simulator), runs the
    DUT [cycles] clock cycles per vector, and reports PASS/FAIL. *)
let testbench ?(name = "design") (nl : N.t) ~cycles
    ~(vectors :
       ((string * Hls_bitvec.t) list * (string * Hls_bitvec.t) list) list) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let literal bv =
    Printf.sprintf "%d'b%s" (Hls_bitvec.width bv) (Hls_bitvec.to_string bv)
  in
  let in_ports = N.input_ports nl and out_ports = N.output_ports nl in
  add "`timescale 1ns/1ps\nmodule %s_tb;\n" name;
  add "  reg clk = 0;\n  always #5 clk = ~clk;\n";
  List.iter
    (fun (p : N.port) -> add "  reg [%d:0] %s;\n" (p.width - 1) p.port)
    in_ports;
  List.iter
    (fun (p : N.port) -> add "  wire [%d:0] %s;\n" (p.width - 1) p.port)
    out_ports;
  let connect (p : N.port) = Printf.sprintf ", .%s(%s)" p.port p.port in
  add "  %s dut (.clk(clk)%s%s);\n" name
    (String.concat "" (List.map connect in_ports))
    (String.concat "" (List.map connect out_ports));
  add "  integer errors = 0;\n";
  add "  initial begin\n";
  List.iter
    (fun (inputs, expected) ->
      List.iter
        (fun (p, v) -> add "    %s = %s;\n" p (literal v))
        inputs;
      add "    repeat (%d) @(posedge clk);\n    #1;\n" cycles;
      List.iter
        (fun (p, v) ->
          add
            "    if (%s !== %s) begin errors = errors + 1; $display(\"FAIL \
             %s: %%b\", %s); end\n"
            p (literal v) p p)
        expected)
    vectors;
  add
    "    if (errors == 0) $display(\"PASS\"); else $display(\"%%0d \
     FAILURES\", errors);\n";
  add "    $finish;\n  end\nendmodule\n";
  Buffer.contents buf
