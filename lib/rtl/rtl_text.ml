(** Shared piece of the netlist printers: a buffer sized for one
    design's text. *)

(* Structural Verilog of the registry designs runs at 53-56 bytes per net
   (about one assignment line of two to four net references per net);
   sized from the design rather than a large constant, so a small design
   keeps a small buffer and a large one is not regrown. *)
let bytes_per_net = 56

let create nl = Buffer.create (1024 + (bytes_per_net * Netlist.net_count nl))
