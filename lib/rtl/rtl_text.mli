(** Shared pieces of the netlist printers ({!Verilog}, {!Vhdl_netlist}):
    a decimal writer that appends straight to a [Buffer] without building
    an intermediate string, and a buffer sized for one design's text. *)

(** [add_int buf n] appends [n] in decimal, as [string_of_int n] would. *)
val add_int : Buffer.t -> int -> unit

(** A buffer sized from the netlist's net count: about one printed line
    per net, so a typical design is written without regrowing it. *)
val create : Netlist.t -> Buffer.t
