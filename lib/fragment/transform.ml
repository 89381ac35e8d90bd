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
    the window is bit-level consistent.

    The rebuilt graph depends on the plan only through its cuts (each
    addition's fragment [f_lo]/[f_hi] runs); the (ASAP, ALAP) pairs and
    the latency only set windows.  So {!apply} [~like] hands back the
    earlier graph itself, windows recomputed, when the new plan cuts every
    node alike. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module B = Hls_dfg.Builder
module Rewrite = Hls_dfg.Rewrite
module Operand = Hls_dfg.Operand

type window_src = Free | Frag of { src : node_id; index : int }

type t = {
  graph : Graph.t;
  plan : Mobility.plan;
  source : Graph.t;  (** the kernel-form graph the transform started from *)
  windows : (int * int) array;
      (** per transformed-node id: (ASAP, ALAP) cycle window *)
  window_srcs : window_src array;
      (** per transformed-node id: the plan fragment that sets its window *)
}

(* The bits of extended operand [o] at computation positions [lo..hi]:
   [None] when the positions are pure zero padding. *)
let slice_positions (o : operand) ~lo ~hi =
  let w = Operand.width o in
  if lo < w then Some (Operand.reslice o ~hi:(min hi (w - 1)) ~lo)
  else
    match o.ext with
    | Zext -> None
    | Sext -> Some { o with lo = o.hi; ext = Sext }

(* Create a node and record where its scheduling window comes from;
   sources accumulate in node-creation order, i.e. by transformed-node
   id. *)
let mk ctx srcs ?label ?origin ~src kind ~width operands =
  srcs := src :: !srcs;
  B.node ctx.Rewrite.b kind ~width ?label ?origin operands

let free_window plan = (1, plan.Mobility.latency)

(* O(nodes): each fragment's window is its (ASAP, ALAP) pair in [plan]. *)
let windows_of plan srcs =
  Array.map
    (function
      | Free -> free_window plan
      | Frag { src; index } ->
          let f = List.nth plan.Mobility.per_node.(src) index in
          (f.Mobility.f_asap, f.Mobility.f_alap))
    srcs

(* Build the fragment chain for one multi-fragment addition and return the
   operand over its reassembled full value. *)
let build_fragments ctx srcs (n : node) ~mapped_operands frags =
  let op_name = if n.label = "" then "op" ^ string_of_int n.id else n.label in
  let a, bop, cin0 =
    match mapped_operands with
    | [ a; b ] -> (a, b, None)
    | [ a; b; c ] -> (a, b, Some c)
    | _ -> invalid_arg "Transform.build_fragments: malformed add"
  in
  let pieces, _, _ =
    List.fold_left
      (fun (pieces, carry, index) (f : Mobility.frag) ->
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
                  (mk ctx srcs ~src:Free Wire ~width:fw [ o ])
              else Some o
        in
        let oa = fit (slice_positions a ~lo:f.f_lo ~hi:f.f_hi) in
        let ob = fit (slice_positions bop ~lo:f.f_lo ~hi:f.f_hi) in
        let x = Option.value oa ~default:Operand.zero_bit in
        let y = Option.value ob ~default:Operand.zero_bit in
        let cin = if f.f_lo = 0 then cin0 else carry in
        let operands = match cin with None -> [ x; y ] | Some c -> [ x; y; c ] in
        let label =
          String.concat ""
            [ op_name; "["; string_of_int f.f_hi; ":"; string_of_int f.f_lo; "]" ]
        in
        let origin =
          { orig_op = op_name; orig_lo = f.f_lo; orig_hi = f.f_hi }
        in
        let value =
          mk ctx srcs ~label ~origin ~src:(Frag { src = n.id; index }) Add
            ~width:node_w operands
        in
        let sum_slice = Operand.reslice value ~hi:(fw - 1) ~lo:0 in
        let carry_out =
          if has_carry_out then Some (Operand.reslice value ~hi:fw ~lo:fw)
          else None
        in
        (sum_slice :: pieces, carry_out, index + 1))
      ([], None, 0) frags
  in
  let pieces = List.rev pieces in
  match pieces with
  | [ single ] -> single
  | _ ->
      mk ctx srcs ~src:Free ~label:(op_name ^ ".val")
        Concat ~width:n.width pieces

let build graph (plan : Mobility.plan) =
  let srcs = ref [] in
  let g =
    Rewrite.run ~name:(Graph.name graph ^ "_frag") graph ~f:(fun ctx n ->
        let mapped_operands = List.map (Rewrite.map_operand ctx) n.operands in
        match (n.kind, plan.per_node.(n.id)) with
        | Add, ([] | [ _ ]) ->
            (* Unfragmented addition: copy, carrying its window. *)
            let src =
              match plan.per_node.(n.id) with
              | [ _ ] -> Frag { src = n.id; index = 0 }
              | _ -> Free
            in
            let op_name =
              if n.label = "" then "op" ^ string_of_int n.id else n.label
            in
            mk ctx srcs ~label:op_name
              ~origin:{ orig_op = op_name; orig_lo = 0; orig_hi = n.width - 1 }
              ~src Add ~width:n.width mapped_operands
        | Add, frags -> build_fragments ctx srcs n ~mapped_operands frags
        | _ ->
            mk ctx srcs ~label:n.label ?origin:n.origin ~src:Free n.kind
              ~width:n.width mapped_operands)
  in
  let window_srcs = Array.of_list (List.rev !srcs) in
  assert (Array.length window_srcs = Graph.node_count g);
  { graph = g; plan; source = graph; windows = windows_of plan window_srcs;
    window_srcs }

(* Every node cut at the same [f_lo]/[f_hi] runs ([[]] and [[f]] differ:
   the first copies an addition with a free window). *)
let same_cuts (a : Mobility.plan) (b : Mobility.plan) =
  let cut (x : Mobility.frag) (y : Mobility.frag) =
    x.f_lo = y.f_lo && x.f_hi = y.f_hi
  in
  Array.length a.per_node = Array.length b.per_node
  && Array.for_all2 (List.equal cut) a.per_node b.per_node

(** Apply the fragmentation plan to a kernel-form graph, reusing [like]'s
    graph when it was built from this very graph with the same cuts. *)
let apply ?like graph plan =
  match like with
  | Some l when l.source == graph && same_cuts l.plan plan ->
      { l with plan; windows = windows_of plan l.window_srcs }
  | _ -> build graph plan

(** Convenience: plan + apply in one step.  [net]/[arrival] are forwarded
    to {!Mobility.compute} so sweeps can share them across latencies. *)
let run ?like ?n_bits ?policy ?net ?arrival graph ~latency =
  apply ?like graph
    (Mobility.compute ?n_bits ?policy ?net ?arrival graph ~latency)

(** Number of additive operations in the transformed specification (the
    paper's "+34 % operations" metric numerator). *)
let op_count t = Graph.behavioural_op_count t.graph
