(** Structural VHDL emission of a gate-level netlist — the counterpart of
    {!Verilog} for VHDL flows: concurrent assignments for combinational
    cells, one clocked process per flip-flop.  An entity or port name
    that is not a VHDL-93 basic identifier is printed as an extended
    identifier ({!Hls_util.Vhdl_ident}). *)

val emit : ?name:string -> Netlist.t -> string
