(** Elaboration of a scheduled, bound design into a gate-level netlist.

    The structure realized is exactly what {!Hls_alloc.Bind_frag} accounts
    for:

    - a one-hot FSM ring with one state per schedule cycle;
    - one physical ripple-adder chain per packed FU, wide enough for the
      largest per-cycle fragment layout; every FA position gets
      state-steered operand and carry-in muxes, so the same cells serve
      different fragments in different cycles;
    - one capture flip-flop per stored result bit, enabled in the bit's
      production state;
    - glue logic (inverters, gates, muxes from the kernel extraction)
      instantiated as cells at its consumers;
    - output-port capture flip-flops latching each output bit in the state
      it is produced (the paper's excluded "port registers").

    Feeding the result to {!Netlist.run} for λ clock cycles and comparing
    against the behavioural simulator closes the loop: the fragment
    schedule is not merely consistent on paper, it works as steered,
    shared hardware. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module Frag_sched = Hls_sched.Frag_sched
module Bind_frag = Hls_alloc.Bind_frag
module N = Netlist

exception Error of string

let error fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

type fu_site = { site_fu : int; site_offset : int }

type context = {
  nl : N.t;
  s : Frag_sched.t;
  g : Graph.t;
  zero : N.net;
  one : N.net;
  state_q : N.net array;  (** one-hot state nets, index = cycle - 1 *)
  site_of : (node_id, fu_site) Hashtbl.t;
  sum_nets : N.net array array;  (** per fu, per position *)
  cout_nets : N.net array array;
  runs : Bind_frag.stored_run list;
  run_q : (Bind_frag.stored_run * N.net array) list;
  input_nets : (string * int, N.net) Hashtbl.t;
  glue_memo : (node_id * int * int, N.net) Hashtbl.t;
  capture_memo : (node_id * int, N.net) Hashtbl.t;
      (** port-capture flops for output bits not otherwise registered *)
}

let input_net ctx ~port ~bit =
  match Hashtbl.find_opt ctx.input_nets (port, bit) with
  | Some n -> n
  | None ->
      let n = N.input_pin ctx.nl ~port ~bit in
      Hashtbl.replace ctx.input_nets (port, bit) n;
      n

let state_net ctx cycle = ctx.state_q.(cycle - 1)

(* The net carrying bit [i] of [src] during cycle [at]: combinational sum
   wires in the production cycle, capture flip-flops afterwards, gates for
   glue, pins for inputs. *)
let rec value_net ctx (src, i) ~at =
  match src with
  | Input port -> input_net ctx ~port ~bit:i
  | Const bv -> if Hls_bitvec.get bv i then ctx.one else ctx.zero
  | Node id -> (
      let n = Graph.node ctx.g id in
      match n.kind with
      | Add ->
          let produced =
            (Frag_sched.bit_time ctx.s id i).Frag_sched.bt_cycle
          in
          if produced = at then begin
            match Hashtbl.find_opt ctx.site_of id with
            | Some site -> ctx.sum_nets.(site.site_fu).(site.site_offset + i)
            | None -> error "fragment %s has no FU site" n.label
          end
          else if produced < at then begin
            match
              List.find_opt
                (fun ((r : Bind_frag.stored_run), _) ->
                  r.Bind_frag.sr_node = id
                  && i >= r.Bind_frag.sr_lo
                  && i < r.Bind_frag.sr_lo + r.Bind_frag.sr_width
                  && r.Bind_frag.sr_to >= at)
                ctx.run_q
            with
            | Some (r, qs) -> qs.(i - r.Bind_frag.sr_lo)
            | None ->
                error "bit %d of %s read in cycle %d but never registered" i
                  n.label at
          end
          else
            error "bit %d of %s read in cycle %d before cycle %d" i n.label at
              produced
      | _ -> glue_net ctx n i ~at)

and glue_net ctx (n : node) i ~at =
  match Hashtbl.find_opt ctx.glue_memo (n.id, i, at) with
  | Some net -> net
  | None ->
      let net = build_glue ctx n i ~at in
      Hashtbl.replace ctx.glue_memo (n.id, i, at) net;
      net

and operand_bit ctx (o : operand) pos ~at =
  if pos < Operand.width o then value_net ctx (o.src, o.lo + pos) ~at
  else
    match o.ext with
    | Zext -> ctx.zero
    | Sext -> value_net ctx (o.src, o.hi) ~at

and build_glue ctx (n : node) i ~at =
  let op k = List.nth n.operands k in
  let bit o pos = operand_bit ctx o pos ~at in
  match n.kind with
  | Not -> N.not_net ctx.nl (bit (op 0) i)
  | Wire -> bit (op 0) i
  | And -> N.and_net ctx.nl (bit (op 0) i) (bit (op 1) i)
  | Or -> N.or_net ctx.nl (bit (op 0) i) (bit (op 1) i)
  | Xor -> N.xor_net ctx.nl (bit (op 0) i) (bit (op 1) i)
  | Gate -> N.and_net ctx.nl (bit (op 0) i) (bit (op 1) 0)
  | Mux ->
      N.mux_net ctx.nl ~sel:(bit (op 0) 0) ~a:(bit (op 1) i)
        ~b:(bit (op 2) i)
  | Concat ->
      let rec find offset = function
        | [] -> ctx.zero
        | o :: tl ->
            let w = Operand.width o in
            if i < offset + w then bit o (i - offset)
            else find (offset + w) tl
      in
      find 0 n.operands
  | Reduce_or ->
      let o = op 0 in
      List.fold_left
        (fun acc pos -> N.or_net ctx.nl acc (bit o pos))
        ctx.zero
        (Hls_util.List_ext.range 0 (Operand.width o))
  | k -> error "unexpected %s in a scheduled graph" (kind_to_string k)

(* Fragments bound to one FU, laid out per cycle: node-id order within a
   cycle keeps a lower fragment (the carry producer) below its upper
   sibling. *)
let layout (s : Frag_sched.t) (frags : node list) =
  let by_cycle = Hashtbl.create 8 in
  List.iter
    (fun (n : node) ->
      let c = s.Frag_sched.cycle_of.(n.id) in
      let prev = Option.value (Hashtbl.find_opt by_cycle c) ~default:[] in
      Hashtbl.replace by_cycle c (n :: prev))
    frags;
  Hashtbl.fold
    (fun cycle nodes acc ->
      let ordered = List.sort (fun a b -> compare a.id b.id) nodes in
      let _, placed =
        List.fold_left
          (fun (offset, acc) (n : node) ->
            (offset + n.width, (n, offset) :: acc))
          (0, []) ordered
      in
      (cycle, List.rev placed) :: acc)
    by_cycle []

(** Elaborate the schedule into a netlist. *)
let elaborate (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let nl = N.create () in
  let latency = s.Frag_sched.latency in
  let zero = N.const_net nl false in
  let one = N.const_net nl true in
  (* One-hot FSM ring. *)
  let state_q = Array.init latency (fun _ -> N.fresh_net nl) in
  Array.iteri
    (fun i q ->
      let d = state_q.((i + latency - 1) mod latency) in
      N.dff_into nl ~d ~q ~init:(i = 0) ())
    state_q;
  (* FU sites and result nets. *)
  let fus = Bind_frag.dedicated_fus s in
  let site_of = Hashtbl.create 64 in
  let layouts =
    List.mapi
      (fun fu_idx (_, frags) ->
        let per_cycle = layout s frags in
        List.iter
          (fun (_, placed) ->
            List.iter
              (fun ((n : node), offset) ->
                Hashtbl.replace site_of n.id
                  { site_fu = fu_idx; site_offset = offset })
              placed)
          per_cycle;
        per_cycle)
      fus
  in
  let phys_width per_cycle =
    List.fold_left
      (fun acc (_, placed) ->
        List.fold_left
          (fun acc ((n : node), offset) -> max acc (offset + n.width))
          acc placed)
      1 per_cycle
  in
  let sum_nets =
    Array.of_list
      (List.map
         (fun per_cycle ->
           Array.init (phys_width per_cycle) (fun _ -> N.fresh_net nl))
         layouts)
  in
  let cout_nets =
    Array.of_list
      (List.map
         (fun per_cycle ->
           Array.init (phys_width per_cycle) (fun _ -> N.fresh_net nl))
         layouts)
  in
  (* Capture flip-flop nets for every stored run. *)
  let runs = Bind_frag.stored_runs s in
  let run_q =
    List.map
      (fun (r : Bind_frag.stored_run) ->
        (r, Array.init r.Bind_frag.sr_width (fun _ -> N.fresh_net nl)))
      runs
  in
  let ctx =
    {
      nl; s; g; zero; one; state_q; site_of; sum_nets; cout_nets; runs;
      run_q;
      input_nets = Hashtbl.create 64;
      glue_memo = Hashtbl.create 256;
      capture_memo = Hashtbl.create 64;
    }
  in
  (* Steering and FA chains per FU. *)
  List.iteri
    (fun fu_idx per_cycle ->
      let width = Array.length ctx.sum_nets.(fu_idx) in
      (* For each position, gather the per-cycle drive of ports a, b and
         carry-in, then build the state-steered mux chains. *)
      for pos = 0 to width - 1 do
        let choices =
          List.filter_map
            (fun (cycle, placed) ->
              match
                List.find_opt
                  (fun ((n : node), offset) ->
                    pos >= offset && pos < offset + n.width)
                  placed
              with
              | None -> None
              | Some (n, offset) ->
                  let local = pos - offset in
                  let a_op, b_op, cin_op =
                    match n.operands with
                    | [ a; b ] -> (a, b, None)
                    | [ a; b; c ] -> (a, b, Some c)
                    | _ -> error "malformed addition %s" n.label
                  in
                  let a_net = operand_bit ctx a_op local ~at:cycle in
                  let b_net = operand_bit ctx b_op local ~at:cycle in
                  let cin_net =
                    if local > 0 then ctx.cout_nets.(fu_idx).(pos - 1)
                    else
                      match cin_op with
                      | None -> ctx.zero
                      | Some c -> value_net ctx (c.src, c.lo) ~at:cycle
                  in
                  Some (cycle, a_net, b_net, cin_net))
            per_cycle
        in
        let steer pick =
          match choices with
          | [] -> ctx.zero
          | [ (_, _, _, _) ] -> pick (List.hd choices)
          | first :: rest ->
              (* Later states select their own drive; the first is the
                 default so single-config positions cost no mux. *)
              List.fold_left
                (fun acc choice ->
                  let cycle, _, _, _ = choice in
                  N.mux_net ctx.nl ~sel:(state_net ctx cycle) ~a:(pick choice)
                    ~b:acc)
                (pick first) rest
        in
        let a = steer (fun (_, a, _, _) -> a) in
        let b = steer (fun (_, _, b, _) -> b) in
        let cin = steer (fun (_, _, _, c) -> c) in
        N.fa_into ctx.nl ~a ~b ~cin ~sum:ctx.sum_nets.(fu_idx).(pos)
          ~cout:ctx.cout_nets.(fu_idx).(pos)
      done)
    layouts;
  (* Capture flip-flops. *)
  List.iter
    (fun ((r : Bind_frag.stored_run), qs) ->
      let produced = r.Bind_frag.sr_from - 1 in
      let en = state_net ctx produced in
      Array.iteri
        (fun k q ->
          let bit = r.Bind_frag.sr_lo + k in
          let d = value_net ctx (Node r.Bind_frag.sr_node, bit) ~at:produced in
          N.dff_into ctx.nl ~d ~en ~q ())
        qs)
    run_q;
  (* Output-port capture: every *addition* bit an output depends on is
     latched in its production state — by the stored-run register when one
     exists, otherwise by a dedicated port-capture flop (the "port
     registers" the paper excludes from its area accounting) — and the
     output glue is rebuilt over the captured nets, so it is valid at the
     end of the run regardless of when each contribution was computed. *)
  let rec captured_net (src, i) =
    match src with
    | Input port -> input_net ctx ~port ~bit:i
    | Const bv -> if Hls_bitvec.get bv i then ctx.one else ctx.zero
    | Node id -> (
        let n = Graph.node g id in
        match n.kind with
        | Add -> (
            match Hashtbl.find_opt ctx.capture_memo (id, i) with
            | Some q -> q
            | None ->
                let q =
                  (* A stored run's register already holds the bit from its
                     production cycle onward. *)
                  match
                    List.find_opt
                      (fun ((r : Bind_frag.stored_run), _) ->
                        r.Bind_frag.sr_node = id
                        && i >= r.Bind_frag.sr_lo
                        && i < r.Bind_frag.sr_lo + r.Bind_frag.sr_width)
                      ctx.run_q
                  with
                  | Some (r, qs) -> qs.(i - r.Bind_frag.sr_lo)
                  | None ->
                      let produced =
                        (Frag_sched.bit_time ctx.s id i).Frag_sched.bt_cycle
                      in
                      let d = value_net ctx (Node id, i) ~at:produced in
                      N.dff ctx.nl ~en:(state_net ctx produced) ~d ()
                in
                Hashtbl.replace ctx.capture_memo (id, i) q;
                q)
        | _ -> captured_glue n i)
  and captured_glue (n : node) i =
    match Hashtbl.find_opt ctx.glue_memo (n.id, i, -1) with
    | Some q -> q
    | None ->
        let op k = List.nth n.operands k in
        let bit (o : operand) pos =
          if pos < Operand.width o then captured_net (o.src, o.lo + pos)
          else
            match o.ext with
            | Zext -> ctx.zero
            | Sext -> captured_net (o.src, o.hi)
        in
        let q =
          match n.kind with
          | Not -> N.not_net ctx.nl (bit (op 0) i)
          | Wire -> bit (op 0) i
          | And -> N.and_net ctx.nl (bit (op 0) i) (bit (op 1) i)
          | Or -> N.or_net ctx.nl (bit (op 0) i) (bit (op 1) i)
          | Xor -> N.xor_net ctx.nl (bit (op 0) i) (bit (op 1) i)
          | Gate -> N.and_net ctx.nl (bit (op 0) i) (bit (op 1) 0)
          | Mux ->
              N.mux_net ctx.nl ~sel:(bit (op 0) 0) ~a:(bit (op 1) i)
                ~b:(bit (op 2) i)
          | Concat ->
              let rec find offset = function
                | [] -> ctx.zero
                | o :: tl ->
                    let w = Operand.width o in
                    if i < offset + w then bit o (i - offset)
                    else find (offset + w) tl
              in
              find 0 n.operands
          | Reduce_or ->
              let o = op 0 in
              List.fold_left
                (fun acc pos -> N.or_net ctx.nl acc (bit o pos))
                ctx.zero
                (Hls_util.List_ext.range 0 (Operand.width o))
          | k -> error "unexpected %s in a scheduled graph" (kind_to_string k)
        in
        Hashtbl.replace ctx.glue_memo (n.id, i, -1) q;
        q
  in
  List.iter
    (fun (port, (o : operand)) ->
      List.iter
        (fun k ->
          N.output_pin nl ~port ~bit:k (captured_net (o.src, o.lo + k)))
        (Hls_util.List_ext.range 0 (Operand.width o)))
    g.Graph.outputs;
  nl

(* The "netlist" phase span of the synthesis flow (inert unless a
   measuring run armed telemetry). *)
let elaborate s =
  Hls_telemetry.with_span ~cat:"pipeline" "netlist" (fun () -> elaborate s)

(** Elaborate and run one sample through the gate-level netlist. *)
let run s ~inputs =
  let nl = elaborate s in
  N.run nl ~cycles:s.Frag_sched.latency ~inputs
