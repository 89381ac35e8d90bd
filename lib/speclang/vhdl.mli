(** Behavioural VHDL emission (the paper's Fig. 1a / Fig. 2a style): one
    entity with the graph's ports and a single process computing every node
    into a variable, using ieee.numeric_std arithmetic.  All graph kinds
    are expressible, including kernel glue.  Entity, port and variable
    names that are not VHDL-93 basic identifiers are printed as extended
    identifiers ({!Hls_util.Vhdl_ident}). *)

val emit : Hls_dfg.Graph.t -> string
