(** Fragment selection (paper §3.3).

    For every addition of the kernel-form graph, each result bit gets a
    (bit-level ASAP cycle, bit-level ALAP cycle) pair under the chaining
    budget estimated in §3.2.  An operation is broken at every change of
    that pair: the fragments are the maximal runs of bits sharing one pair,
    so every fragment of an operation has a different mobility and no
    fragment's mobility is narrower than the bits' own (the paper breaks
    mobile operations precisely "to avoid any reduction in their
    mobilities").

    A fragment whose ASAP and ALAP cycles coincide is already scheduled;
    the rest are placed by the conventional scheduler. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Arrival = Hls_timing.Arrival
module Deadline = Hls_timing.Deadline
module Bitnet = Hls_timing.Bitnet
module Critical_path = Hls_timing.Critical_path
module Int_math = Hls_util.Int_math

type frag = {
  f_lo : int;  (** lowest original result bit of the fragment *)
  f_hi : int;
  f_asap : int;  (** earliest cycle (1-based) *)
  f_alap : int;  (** latest cycle *)
}

let frag_width f = f.f_hi - f.f_lo + 1
let is_fixed f = f.f_asap = f.f_alap

type plan = {
  latency : int;
  n_bits : int;  (** chaining budget: 1-bit additions per cycle *)
  critical : int;  (** critical path of the graph in δ *)
  per_node : frag list array;
      (** fragments per node id; [[]] for glue nodes *)
}

(** Fragmentation policies.

    - [`Full] is the paper's algorithm: one fragment per distinct
      (ASAP, ALAP) pair, so no bit loses any mobility.
    - [`Coalesced] is an ablation: adjacent fragments are merged while
      their windows still intersect and the merged fragment's δ-costly
      width fits the cycle budget.  Fewer, larger fragments mean less
      operand steering (muxes/control) at the price of scheduling freedom
      — the bench quantifies the trade. *)
type policy = [ `Full | `Coalesced ]

(* The maximal runs of bits sharing one (ASAP, ALAP) cycle pair, in one
   walk from the top bit down so each run conses on in final order.  The
   cycle of a slot is [max 1 (ceil (slot / n_bits))], as in
   {!Arrival.asap_cycle} and {!Deadline.alap_cycle}. *)
let node_fragments arr dl ~n_bits (n : node) =
  let id = n.id in
  let top = n.width - 1 in
  let hi = ref top in
  let asap =
    ref (Int.max 1 (Int_math.ceil_div (Arrival.slot arr ~id ~bit:top) n_bits))
  and alap =
    ref (Int.max 1 (Int_math.ceil_div (Deadline.slot dl ~id ~bit:top) n_bits))
  in
  let frags = ref [] in
  for bit = top - 1 downto 0 do
    let a = Int.max 1 (Int_math.ceil_div (Arrival.slot arr ~id ~bit) n_bits)
    and d = Int.max 1 (Int_math.ceil_div (Deadline.slot dl ~id ~bit) n_bits) in
    if a <> !asap || d <> !alap then begin
      frags :=
        { f_lo = bit + 1; f_hi = !hi; f_asap = !asap; f_alap = !alap }
        :: !frags;
      hi := bit;
      asap := a;
      alap := d
    end
  done;
  { f_lo = 0; f_hi = !hi; f_asap = !asap; f_alap = !alap } :: !frags

(* Merge adjacent fragments while the windows intersect, the merged
   costly width fits one cycle, and — slot-level check — some cycle of the
   merged window can hold the whole ripple between every bit's arrival and
   deadline.  Without the slot check a merge can force a fragment and its
   same-cycle consumer to chain past the budget.  Costly-width queries are
   O(1) on the net's prefix sums. *)
let coalesce arr dl net ~n_bits (n : node) frags =
  let merge a b =
    let asap = max a.f_asap b.f_asap and alap = min a.f_alap b.f_alap in
    if asap > alap then None
    else
      let candidate =
        { f_lo = a.f_lo; f_hi = b.f_hi; f_asap = asap; f_alap = alap }
      in
      if
        Bitnet.costly_in_range net ~id:n.id ~lo:candidate.f_lo
          ~hi:candidate.f_hi
        > n_bits
      then None
      else
        let feasible_at c =
          let ok = ref true in
          let k = ref 0 in
          for bit = candidate.f_lo to candidate.f_hi do
            if Bitnet.cost_of net ~id:n.id ~bit > 0 then incr k;
            let slot = ((c - 1) * n_bits) + max 1 !k in
            if
              Arrival.slot arr ~id:n.id ~bit > slot
              || Deadline.slot dl ~id:n.id ~bit < slot
            then ok := false
          done;
          !ok
        in
        if
          List.exists feasible_at
            (Hls_util.List_ext.range asap (alap + 1))
        then Some candidate
        else None
  in
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest -> (
        match acc with
        | prev :: acc_tl -> (
            match merge prev f with
            | Some m -> go (m :: acc_tl) rest
            | None -> go (f :: acc) rest)
        | [] -> go [ f ] rest)
  in
  go [] frags

(** The literal fragmentation pseudocode printed in the paper (§3.3):
    distribute the operation's bits over its cycle window — [n_bits] per
    cycle forward from ASAP for the earliest distribution, backward from
    ALAP for the latest — then pair the two distributions off; each pairing
    step yields one fragment whose window is the (ASAP cycle, ALAP cycle)
    of the bits consumed.

    The paper's loop assumes the bits distribute uniformly, which holds for
    operations whose operands are ready at cycle starts; the bit-level
    engine ({!compute}) generalizes it to chained operands, truncation and
    free carry columns.  The test-suite checks that on uniform operations
    the two constructions agree. *)
let paper_fragments ~width ~n_bits ~asap ~alap =
  if width < 1 || n_bits < 1 || asap < 1 || alap < asap then
    invalid_arg "Mobility.paper_fragments: bad arguments";
  let cycles = alap + 1 in
  let sched_asap = Array.make cycles 0 in
  let sched_alap = Array.make cycles 0 in
  (* First loop: spread the bits n_bits at a time, forward from ASAP and
     backward from ALAP. *)
  let w = ref width and i = ref asap and j = ref alap in
  while !w > 0 do
    if !i > alap || !j < asap then
      invalid_arg
        "Mobility.paper_fragments: window too small for the operation";
    let chunk = min !w n_bits in
    sched_asap.(!i) <- chunk;
    sched_alap.(!j) <- chunk;
    w := !w - n_bits;
    incr i;
    decr j
  done;
  (* Second loop: pair the distributions; each minimum is a fragment. *)
  let frags = ref [] in
  let lo = ref 0 in
  let i = ref asap and j = ref asap in
  let remaining = ref width in
  while !remaining > 0 do
    while !i <= alap && sched_asap.(!i) = 0 do incr i done;
    while !j <= alap && sched_alap.(!j) = 0 do incr j done;
    if !i > alap || !j > alap then remaining := 0
    else begin
      let m = min sched_asap.(!i) sched_alap.(!j) in
      sched_asap.(!i) <- sched_asap.(!i) - m;
      sched_alap.(!j) <- sched_alap.(!j) - m;
      frags :=
        { f_lo = !lo; f_hi = !lo + m - 1; f_asap = !i; f_alap = !j }
        :: !frags;
      lo := !lo + m;
      remaining := !remaining - m
    end
  done;
  List.rev !frags

let check_kernel_form graph =
  if
    not
      (Graph.fold_nodes
         (fun acc n -> acc && (n.kind = Add || is_glue n.kind))
         true graph)
  then
    invalid_arg
      "Mobility.compute: graph must be in additive kernel form (run \
       operative kernel extraction first)"

let resolve_n_bits ~critical ~latency = function
  | Some n when n >= 1 -> n
  | Some _ -> invalid_arg "Mobility.compute: n_bits must be >= 1"
  | None -> Critical_path.cycle_delta_for_latency ~critical ~latency

(* The stable marker [infeasibility_of_exn] recognizes; both must change
   together. *)
let infeasible_prefix = "Mobility.compute: infeasible point: "

let infeasible_error ~latency ~n_bits ~critical ~witness =
  let where =
    match witness with
    | Some (id, bit) -> Printf.sprintf " (first violated: node %d bit %d)" id bit
    | None -> ""
  in
  invalid_arg
    (Printf.sprintf
       "%s%d cycles of %d bits cannot cover a %d-delta critical path%s"
       infeasible_prefix latency n_bits critical where)

(** Recognize this module's own infeasibility error: [Some message] when
    [exn] is the [Invalid_argument] raised for a budget that cannot cover
    the critical path (with the witness when one is known), [None] for
    every other exception — including this module's caller-error
    [Invalid_argument]s, which are bugs rather than infeasible points.
    Feeds the {!Hls_util.Failure} taxonomy without leaking the message
    format to other layers. *)
let infeasibility_of_exn = function
  | Invalid_argument m
    when String.length m >= String.length infeasible_prefix
         && String.sub m 0 (String.length infeasible_prefix)
            = infeasible_prefix ->
      Some m
  | _ -> None

(** Compute the fragmentation plan for scheduling [graph] — which must be
    in additive kernel form — over [latency] cycles.  [n_bits] defaults to
    the §3.2 estimate [ceil(critical / latency)].  [net] and [arrival], if
    given, must belong to [graph]; passing them lets a latency sweep build
    both once and share them across every candidate latency. *)
let compute ?n_bits ?(policy = `Full) ?net ?arrival graph ~latency =
  if latency < 1 then invalid_arg "Mobility.compute: latency must be >= 1";
  check_kernel_form graph;
  let net =
    match net with
    | Some (net : Bitnet.t) ->
        if net.Bitnet.graph != graph then
          invalid_arg "Mobility.compute: net belongs to a different graph";
        net
    | None -> Bitnet.build graph
  in
  let arr = match arrival with Some a -> a | None -> Arrival.of_net net in
  let critical = Arrival.critical_delta arr in
  let n_bits = resolve_n_bits ~critical ~latency n_bits in
  (* The early-exit kernel validates each level as it becomes final, so
     an infeasible budget bails after a fraction of the reverse sweep —
     and an [Ok] already proves feasibility, no separate witness scan. *)
  let dl =
    match
      Deadline.of_net_check net ~total_slots:(latency * n_bits) ~arrival:arr
    with
    | Ok dl -> dl
    | Error w ->
        infeasible_error ~latency ~n_bits ~critical ~witness:(Some w)
  in
  let per_node =
    Array.init (Graph.node_count graph) (fun id ->
        let n = Graph.node graph id in
        match n.kind with
        | Add -> (
            let frags = node_fragments arr dl ~n_bits n in
            match policy with
            | `Full -> frags
            | `Coalesced -> coalesce arr dl net ~n_bits n frags)
        | _ -> [])
  in
  { latency; n_bits; critical; per_node }

(** Number of additive operations after fragmentation. *)
let fragment_count plan =
  Array.fold_left (fun acc frags -> acc + List.length frags) 0 plan.per_node

(** Additions that must be broken up (more than one fragment). *)
let broken_op_count plan =
  Array.fold_left
    (fun acc frags -> if List.length frags > 1 then acc + 1 else acc)
    0 plan.per_node

let pp_frag ppf f =
  Format.fprintf ppf "[%d:%d]@(%d..%d)" f.f_hi f.f_lo f.f_asap f.f_alap

let pp ppf plan =
  Format.fprintf ppf "@[<v>plan: latency %d, cycle %d bits, critical %d delta@ "
    plan.latency plan.n_bits plan.critical;
  Array.iteri
    (fun id frags ->
      if frags <> [] then
        Format.fprintf ppf "n%d: %a@ " id
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
             pp_frag)
          frags)
    plan.per_node;
  Format.fprintf ppf "@]"
