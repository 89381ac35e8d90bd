(** Shared pieces of the netlist printers: an allocation-free decimal
    writer and a buffer sized for one design's text. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else Buffer.add_string buf (string_of_int n)

(* Structural Verilog of the registry designs runs at 53-56 bytes per net
   (about one assignment line of two to four net references per net);
   sized from the design rather than a large constant, so a small design
   keeps a small buffer and a large one is not regrown. *)
let bytes_per_net = 56

let create nl = Buffer.create (1024 + (bytes_per_net * Netlist.net_count nl))
