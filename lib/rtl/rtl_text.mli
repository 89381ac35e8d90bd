(** Shared piece of the netlist printers ({!Verilog}, {!Vhdl_netlist}):
    a buffer sized for one design's text.  Their decimal digits come from
    {!Hls_util.Decimal.add_int}. *)

(** A buffer sized from the netlist's net count: about one printed line
    per net, so a typical design is written without regrowing it. *)
val create : Netlist.t -> Buffer.t
