(** Gate-level structural netlist and its simulator.

    The final substrate layer: {!Elaborate_netlist} lowers a scheduled,
    bound design into cells — full adders, 2:1 muxes, inverters, flip-flops
    and a one-hot FSM ring — and this module simulates the result clock
    cycle by clock cycle at the gate level.  Nothing here knows about
    operations, fragments or schedules: if the gate-level run still matches
    the behavioural reference, the whole stack above (scheduling, binding,
    steering, capture) is realizable as actual shared hardware.

    A shared, steered datapath contains *false* combinational loops: FU A's
    operand mux may select FU B's sum in one state while B's mux selects A's
    sum in another — never both in the same cycle, but structurally a loop.
    The simulator therefore settles each cycle by sweeping the cells to a
    fixed point (bounded by the cell count); genuine loops are reported. *)

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

type t = {
  mutable cells : cell list;  (** reversed during building *)
  mutable net_count : int;
  mutable inputs : (string * int * net) list;  (** port, bit, net *)
  mutable outputs : (string * int * net) list;
}

let create () = { cells = []; net_count = 0; inputs = []; outputs = [] }

let fresh_net t =
  let n = t.net_count in
  t.net_count <- n + 1;
  n

let add_cell t c = t.cells <- c :: t.cells

let const_net t value =
  let y = fresh_net t in
  add_cell t (Const_cell { value; y });
  y

let not_net t a =
  let y = fresh_net t in
  add_cell t (Not_cell { a; y });
  y

let and_net t a b =
  let y = fresh_net t in
  add_cell t (And_cell { a; b; y });
  y

let or_net t a b =
  let y = fresh_net t in
  add_cell t (Or_cell { a; b; y });
  y

let xor_net t a b =
  let y = fresh_net t in
  add_cell t (Xor_cell { a; b; y });
  y

let mux_net t ~sel ~a ~b =
  let y = fresh_net t in
  add_cell t (Mux_cell { sel; a; b; y });
  y

let fa t ~a ~b ~cin =
  let sum = fresh_net t and cout = fresh_net t in
  add_cell t (Fa_cell { a; b; cin; sum; cout });
  (sum, cout)

(** Full adder writing into pre-allocated nets (the elaborator allocates
    all FU result nets before wiring the steering that reads them). *)
let fa_into t ~a ~b ~cin ~sum ~cout =
  add_cell t (Fa_cell { a; b; cin; sum; cout })

let dff_into t ?en ?(init = false) ~d ~q () =
  add_cell t (Dff_cell { d; en; q; init })

let dff t ?en ?(init = false) ~d () =
  let q = fresh_net t in
  add_cell t (Dff_cell { d; en; q; init });
  q

let input_pin t ~port ~bit =
  let y = fresh_net t in
  t.inputs <- (port, bit, y) :: t.inputs;
  y

let output_pin t ~port ~bit net = t.outputs <- (port, bit, net) :: t.outputs

(** Cells in creation (topological) order. *)
let cells t = List.rev t.cells

let net_count t = t.net_count

type port = { port : string; width : int; bits : (int * net) list }

(* Ports in the order of their first pin; each port's bits come out in
   reverse pin order. *)
let group pins =
  let tbl = Hashtbl.create 8 and first = ref [] in
  List.iter
    (fun (port, bit, net) ->
      match Hashtbl.find_opt tbl port with
      | Some l -> Hashtbl.replace tbl port ((bit, net) :: l)
      | None ->
          first := port :: !first;
          Hashtbl.replace tbl port [ (bit, net) ])
    pins;
  List.rev_map
    (fun port ->
      let bits = Hashtbl.find tbl port in
      let width = 1 + List.fold_left (fun a (b, _) -> max a b) 0 bits in
      { port; width; bits })
    !first

let input_ports t = group (List.rev t.inputs)
let output_ports t = group (List.rev t.outputs)
let by_name ports = List.sort (fun a b -> compare a.port b.port) ports

(** {1 Statistics} *)

type stats = {
  n_fa : int;
  n_mux : int;
  n_dff : int;
  n_logic : int;  (** and/or/xor/not *)
  n_const : int;
}

let stats t =
  List.fold_left
    (fun s -> function
      | Fa_cell _ -> { s with n_fa = s.n_fa + 1 }
      | Mux_cell _ -> { s with n_mux = s.n_mux + 1 }
      | Dff_cell _ -> { s with n_dff = s.n_dff + 1 }
      | And_cell _ | Or_cell _ | Xor_cell _ | Not_cell _ ->
          { s with n_logic = s.n_logic + 1 }
      | Const_cell _ -> { s with n_const = s.n_const + 1 })
    { n_fa = 0; n_mux = 0; n_dff = 0; n_logic = 0; n_const = 0 }
    (cells t)

(** Equivalent gate count under the technology library's cell costs (FA =
    fa_gates_per_bit, mux = mux cost at width 1, DFF = register bit). *)
let gate_estimate lib t =
  let s = stats t in
  (s.n_fa * lib.Hls_techlib.fa_gates_per_bit)
  + s.n_mux * Hls_techlib.mux_gates lib ~inputs:2 ~width:1
  + (s.n_dff * lib.Hls_techlib.reg_gates_per_bit)
  + s.n_logic

(** {1 Simulation} *)

type sim = {
  netlist : t;
  values : bool array;  (** current net values *)
  ordered : cell array;
  mutable cycle : int;
}

let sim_create netlist =
  let ordered = Array.of_list (cells netlist) in
  let values = Array.make netlist.net_count false in
  (* Flip-flops present their initial value before the first clock. *)
  Array.iter
    (function
      | Dff_cell { q; init; _ } -> values.(q) <- init
      | _ -> ())
    ordered;
  { netlist; values; ordered; cycle = 0 }

exception Unstable of string

(* One combinational settle: sweep the cells until no net changes.  A
   steered shared datapath has false loops, so a single in-order pass is
   not enough; value convergence is guaranteed for any loop that is false
   in the current state. *)
let settle sim ~input_bit =
  List.iter
    (fun (port, bit, net) -> sim.values.(net) <- input_bit port bit)
    sim.netlist.inputs;
  let sweep () =
    let changed = ref false in
    Array.iter
      (fun cell ->
        let v = sim.values in
        let set y value =
          if v.(y) <> value then begin
            v.(y) <- value;
            changed := true
          end
        in
        match cell with
        | Const_cell { value; y } -> set y value
        | Not_cell { a; y } -> set y (not v.(a))
        | And_cell { a; b; y } -> set y (v.(a) && v.(b))
        | Or_cell { a; b; y } -> set y (v.(a) || v.(b))
        | Xor_cell { a; b; y } -> set y (v.(a) <> v.(b))
        | Mux_cell { sel; a; b; y } -> set y (if v.(sel) then v.(a) else v.(b))
        | Fa_cell { a; b; cin; sum; cout } ->
            let x = v.(a) and y_ = v.(b) and c = v.(cin) in
            set sum (x <> y_ <> c);
            set cout ((x && y_) || (x && c) || (y_ && c))
        | Dff_cell _ -> ())
      sim.ordered;
    !changed
  in
  let rec go passes =
    if passes > Array.length sim.ordered + 2 then
      raise (Unstable "combinational logic did not settle (true loop?)")
    else if sweep () then go (passes + 1)
  in
  go 0

(* Clock edge: every DFF latches its (possibly enabled) next value. *)
let clock sim =
  let next =
    Array.to_list sim.ordered
    |> List.filter_map (function
         | Dff_cell { d; en; q; _ } ->
             let enabled =
               match en with None -> true | Some e -> sim.values.(e)
             in
             if enabled then Some (q, sim.values.(d)) else None
         | _ -> None)
  in
  List.iter (fun (q, v) -> sim.values.(q) <- v) next;
  sim.cycle <- sim.cycle + 1

let input_bit ~caller inputs port bit =
  match List.assoc_opt port inputs with
  | Some bv -> Hls_bitvec.get bv bit
  | None ->
      invalid_arg (Printf.sprintf "Netlist.%s: missing input %s" caller port)

(** Run [cycles] clock cycles with constant inputs and return the output
    pins' final values. *)
let run netlist ~cycles ~inputs =
  let sim = sim_create netlist in
  let input_bit = input_bit ~caller:"run" inputs in
  for _ = 1 to cycles do
    settle sim ~input_bit;
    clock sim
  done;
  (* Outputs are sampled after the last settle (port registers excluded,
     as in the paper's area accounting). *)
  settle sim ~input_bit;
  List.map
    (fun p ->
      ( p.port,
        Hls_bitvec.init p.width (fun i ->
            match List.assoc_opt i p.bits with
            | Some net -> sim.values.(net)
            | None -> false) ))
    (output_ports netlist)

(** {1 VCD waveform dumping} *)

(* Printable VCD identifier for index [k]. *)
let vcd_id k =
  let alphabet = 94 in
  let rec go k acc =
    let c = Char.chr (33 + (k mod alphabet)) in
    let acc = String.make 1 c ^ acc in
    if k < alphabet then acc else go ((k / alphabet) - 1) acc
  in
  go k ""

(** Simulate [cycles] clock cycles and render a VCD waveform of the ports,
    the flip-flop outputs and the clock — inspectable with GTKWave. *)
let dump_vcd netlist ~cycles ~inputs =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Signals: clock + input pins + output pins + dff outputs. *)
  let signals = ref [] in
  let fresh =
    let k = ref 0 in
    fun () ->
      let id = vcd_id !k in
      incr k;
      id
  in
  let clk_id = fresh () in
  List.iter
    (fun (port, bit, net) ->
      signals := (Printf.sprintf "%s_%d" port bit, fresh (), net) :: !signals)
    (List.rev netlist.inputs);
  List.iter
    (fun (port, bit, net) ->
      signals :=
        (Printf.sprintf "%s_out_%d" port bit, fresh (), net) :: !signals)
    (List.rev netlist.outputs);
  List.iteri
    (fun k cell ->
      match cell with
      | Dff_cell { q; _ } ->
          signals := (Printf.sprintf "reg%d" k, fresh (), q) :: !signals
      | _ -> ())
    (cells netlist);
  let signals = List.rev !signals in
  add "$timescale 1ns $end\n";
  add "$scope module top $end\n";
  add "$var wire 1 %s clk $end\n" clk_id;
  List.iter
    (fun (name, id, _) -> add "$var wire 1 %s %s $end\n" id name)
    signals;
  add "$upscope $end\n$enddefinitions $end\n";
  let sim = sim_create netlist in
  let input_bit = input_bit ~caller:"dump_vcd" inputs in
  let last = Hashtbl.create 64 in
  let dump_values time clk =
    add "#%d\n" time;
    add "%d%s\n" (if clk then 1 else 0) clk_id;
    List.iter
      (fun (_, id, net) ->
        let v = sim.values.(net) in
        match Hashtbl.find_opt last id with
        | Some prev when prev = v -> ()
        | _ ->
            Hashtbl.replace last id v;
            add "%d%s\n" (if v then 1 else 0) id)
      signals
  in
  for t = 0 to cycles - 1 do
    settle sim ~input_bit;
    dump_values (2 * t) false;
    (* Rising edge mid-period: flip-flops latch. *)
    clock sim;
    settle sim ~input_bit;
    dump_values ((2 * t) + 1) true
  done;
  add "#%d\n" (2 * cycles);
  Buffer.contents buf
