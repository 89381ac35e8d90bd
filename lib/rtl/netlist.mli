(** Gate-level structural netlist and its simulator.

    Cells: constants, inverters, 2-input gates, 2:1 muxes, full adders and
    (enable-)flip-flops.  The per-cycle settle iterates to a fixed point,
    so the *false* combinational loops of a steered shared datapath (mux
    exclusivity guarantees convergence) simulate correctly; a genuine loop
    raises {!Unstable}. *)

type net = int

type cell =
  | Const_cell of { value : bool; y : net }
  | Not_cell of { a : net; y : net }
  | And_cell of { a : net; b : net; y : net }
  | Or_cell of { a : net; b : net; y : net }
  | Xor_cell of { a : net; b : net; y : net }
  | Mux_cell of { sel : net; a : net; b : net; y : net }
      (** y = sel ? a : b *)
  | Fa_cell of { a : net; b : net; cin : net; sum : net; cout : net }
  | Dff_cell of { d : net; en : net option; q : net; init : bool }

type t

val create : unit -> t
val fresh_net : t -> net
val const_net : t -> bool -> net
val not_net : t -> net -> net
val and_net : t -> net -> net -> net
val or_net : t -> net -> net -> net
val xor_net : t -> net -> net -> net
val mux_net : t -> sel:net -> a:net -> b:net -> net
val fa : t -> a:net -> b:net -> cin:net -> net * net

(** Full adder writing into pre-allocated nets (the elaborator allocates
    all FU result nets before wiring the steering that reads them). *)
val fa_into : t -> a:net -> b:net -> cin:net -> sum:net -> cout:net -> unit

val dff : t -> ?en:net -> ?init:bool -> d:net -> unit -> net
val dff_into : t -> ?en:net -> ?init:bool -> d:net -> q:net -> unit -> unit
val input_pin : t -> port:string -> bit:int -> net
val output_pin : t -> port:string -> bit:int -> net -> unit
val cells : t -> cell list
val net_count : t -> int

(** A port as the printers declare it: its name, its width (highest pin
    bit + 1) and its [(bit, net)] pins. *)
type port = { port : string; width : int; bits : (int * net) list }

(** The pins grouped per port, ports in the order of their first pin. *)
val input_ports : t -> port list

val output_ports : t -> port list

(** Ports sorted by name: the order a module or entity declares them. *)
val by_name : port list -> port list

type stats = {
  n_fa : int;
  n_mux : int;
  n_dff : int;
  n_logic : int;  (** and/or/xor/not *)
  n_const : int;
}

val stats : t -> stats

(** Equivalent gate count under the technology library's cell costs. *)
val gate_estimate : Hls_techlib.t -> t -> int

exception Unstable of string

(** Run [cycles] clock cycles with constant inputs and return the output
    pins' final values. *)
val run :
  t -> cycles:int -> inputs:(string * Hls_bitvec.t) list ->
  (string * Hls_bitvec.t) list

(** Simulate [cycles] clock cycles and render a VCD waveform of the ports,
    the flip-flop outputs and the clock — inspectable with GTKWave. *)
val dump_vcd :
  t -> cycles:int -> inputs:(string * Hls_bitvec.t) list -> string
