(** Specification transformation: rebuild the kernel-form graph with every
    multi-fragment addition replaced by a chain of smaller additions.

    Each fragment over original result bits [lo..hi] becomes an addition of
    the operands' bits at those positions; a fragment that is not the top
    one is declared one bit wider so its carry out is a named result bit,
    and the fragment above consumes that bit as its carry in — exactly the
    ["0" & slice + "0" & slice ... + C(6)] idiom of the paper's transformed
    VHDL (Fig. 2a).  The original operation's value is reassembled by a
    [Concat] (pure wiring), so consumers — and the simulator — see an
    unchanged function.

    Each transformed node carries a scheduling window: fragments inherit
    their (ASAP, ALAP) cycle mobility; glue is unconstrained.  Because a
    fragment's bits all share one (ASAP, ALAP) pair, any placement within
    the window is bit-level consistent. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module B = Hls_dfg.Builder
module Rewrite = Hls_dfg.Rewrite
module Operand = Hls_dfg.Operand
module Bv = Hls_bitvec

type t = {
  graph : Graph.t;
  plan : Mobility.plan;
  source : Graph.t;  (** the kernel-form graph the transform started from *)
  windows : (int * int) array;
      (** per transformed-node id: (ASAP, ALAP) cycle window *)
}

let zeros k = Operand.of_const (Bv.zero k)

(* The bits of extended operand [o] at computation positions [lo..hi]:
   [None] when the positions are pure zero padding. *)
let slice_positions (o : operand) ~lo ~hi =
  let w = Operand.width o in
  if lo < w then Some (Operand.reslice o ~hi:(min hi (w - 1)) ~lo)
  else
    match o.ext with
    | Zext -> None
    | Sext -> Some { o with lo = o.hi; ext = Sext }

(* Create a node and record its scheduling window; windows accumulate in
   node-creation order, i.e. by transformed-node id. *)
let mk ctx windows ?label ?origin ~window kind ~width operands =
  windows := window :: !windows;
  B.node ctx.Rewrite.b kind ~width ?label ?origin operands

let free_window plan = (1, plan.Mobility.latency)

(* Build the fragment chain for one multi-fragment addition and return the
   operand over its reassembled full value. *)
let build_fragments ctx windows plan (n : node) ~mapped_operands frags =
  let op_name = if n.label = "" then Printf.sprintf "op%d" n.id else n.label in
  let a, bop, cin0 =
    match mapped_operands with
    | [ a; b ] -> (a, b, None)
    | [ a; b; c ] -> (a, b, Some c)
    | _ -> invalid_arg "Transform.build_fragments: malformed add"
  in
  let pieces, _ =
    List.fold_left
      (fun (pieces, carry) (f : Mobility.frag) ->
        let fw = Mobility.frag_width f in
        let has_carry_out = f.f_hi < n.width - 1 in
        let node_w = if has_carry_out then fw + 1 else fw in
        (* Position-exact operand bits; sign-extending slices must not leak
           into the carry column, so materialize them at fragment width. *)
        let fit o =
          match o with
          | None -> None
          | Some o ->
              if Operand.width o >= fw then Some { o with ext = Zext }
              else if o.ext = Sext then
                Some
                  (mk ctx windows ~window:(free_window plan) Wire ~width:fw
                     [ o ])
              else Some o
        in
        let oa = fit (slice_positions a ~lo:f.f_lo ~hi:f.f_hi) in
        let ob = fit (slice_positions bop ~lo:f.f_lo ~hi:f.f_hi) in
        let x = Option.value oa ~default:(zeros 1) in
        let y = Option.value ob ~default:(zeros 1) in
        let cin = if f.f_lo = 0 then cin0 else carry in
        let operands = match cin with None -> [ x; y ] | Some c -> [ x; y; c ] in
        let label = Printf.sprintf "%s[%d:%d]" op_name f.f_hi f.f_lo in
        let origin =
          { orig_op = op_name; orig_lo = f.f_lo; orig_hi = f.f_hi }
        in
        let value =
          mk ctx windows ~label ~origin ~window:(f.f_asap, f.f_alap) Add
            ~width:node_w operands
        in
        let sum_slice = Operand.reslice value ~hi:(fw - 1) ~lo:0 in
        let carry_out =
          if has_carry_out then Some (Operand.reslice value ~hi:fw ~lo:fw)
          else None
        in
        (sum_slice :: pieces, carry_out))
      ([], None) frags
  in
  let pieces = List.rev pieces in
  match pieces with
  | [ single ] -> single
  | _ ->
      mk ctx windows ~window:(free_window plan)
        ~label:(op_name ^ ".val")
        Concat ~width:n.width pieces

(** Apply the fragmentation plan to a kernel-form graph. *)
let apply graph (plan : Mobility.plan) =
  let windows = ref [] in
  let g =
    Rewrite.run ~name:(Graph.name graph ^ "_frag") graph ~f:(fun ctx n ->
        let mapped_operands = List.map (Rewrite.map_operand ctx) n.operands in
        match (n.kind, plan.per_node.(n.id)) with
        | Add, ([] | [ _ ]) ->
            (* Unfragmented addition: copy, carrying its window. *)
            let window =
              match plan.per_node.(n.id) with
              | [ f ] -> (f.Mobility.f_asap, f.Mobility.f_alap)
              | _ -> free_window plan
            in
            let op_name =
              if n.label = "" then Printf.sprintf "op%d" n.id else n.label
            in
            mk ctx windows ~label:op_name
              ~origin:{ orig_op = op_name; orig_lo = 0; orig_hi = n.width - 1 }
              ~window Add ~width:n.width mapped_operands
        | Add, frags ->
            build_fragments ctx windows plan n ~mapped_operands frags
        | _ ->
            mk ctx windows ~label:n.label ?origin:n.origin
              ~window:(free_window plan) n.kind ~width:n.width mapped_operands)
  in
  let windows = Array.of_list (List.rev !windows) in
  assert (Array.length windows = Graph.node_count g);
  { graph = g; plan; source = graph; windows }

(** Convenience: plan + apply in one step.  [net]/[arrival] are forwarded
    to {!Mobility.compute} so sweeps can share them across latencies. *)
let run ?n_bits ?policy ?net ?arrival graph ~latency =
  apply graph (Mobility.compute ?n_bits ?policy ?net ?arrival graph ~latency)

(** Number of additive operations in the transformed specification (the
    paper's "+34 % operations" metric numerator). *)
let op_count t = Graph.behavioural_op_count t.graph
