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
    earlier graph and net themselves, windows recomputed, when the new
    plan cuts every node alike.  A fresh build writes each new node's net
    rows as it creates the node ({!Hls_timing.Bitnet.write}), so the
    graph and its net come out of one pass. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module B = Hls_dfg.Builder
module Rewrite = Hls_dfg.Rewrite
module Operand = Hls_dfg.Operand
module Bitnet = Hls_timing.Bitnet

type window_src = Free | Frag of { src : node_id; index : int }

type t = {
  graph : Graph.t;
  plan : Mobility.plan;
  source : Graph.t;  (** the kernel-form graph the transform started from *)
  windows : (int * int) array;
      (** per transformed-node id: (ASAP, ALAP) cycle window *)
  window_srcs : window_src array;
      (** per transformed-node id: the plan fragment that sets its window *)
  net : Bitnet.t;  (** dependency net of [graph], built with it *)
}

(* The build state beside the graph builder: the net's row writer and
   the per-node window sources and windows, in node-creation (= id)
   order, in arrays sized exactly from the plan; plus scratch for
   fragment labels. *)
type state = {
  rows : Bitnet.writer;
  srcs : window_src array;
  wins : (int * int) array;
  mutable len : int;
  free : int * int;  (** the window of glue: [(1, latency)] *)
  mutable label : Bytes.t;
}

(* Create a node, write its net rows and record where its scheduling
   window comes from; returns the id. *)
let mk st ctx ~src ~window kind ~width ~label ~origin operands =
  let id =
    B.append ctx.Rewrite.b kind ~signedness:Unsigned ~width ~label ~origin
      operands
  in
  Bitnet.write st.rows kind ~width operands;
  st.srcs.(st.len) <- src;
  st.wins.(st.len) <- window;
  st.len <- st.len + 1;
  id

(* Full-range, zero-extending operand over a node built here. *)
let whole id ~width = { src = Node id; hi = width - 1; lo = 0; ext = Zext }

let op_name (n : node) =
  if n.label = "" then "op" ^ string_of_int n.id else n.label

(* An addition the plan leaves whole, named after its original
   operation. *)
let add_copy st ctx (n : node) ~src ~window =
  let op_name = op_name n in
  mk st ctx ~src ~window Add ~width:n.width ~label:op_name
    ~origin:(Some { orig_op = op_name; orig_lo = 0; orig_hi = n.width - 1 })
    (Rewrite.map_operands ctx n.operands)

(* A [Wire] materializing [slice] at fragment width [fw]. *)
let wire st ctx ~fw slice =
  whole ~width:fw
    (mk st ctx ~src:Free ~window:st.free Wire ~width:fw ~label:""
       ~origin:None [ slice ])

(* Whether [frag_operand] materializes a [Wire]: the slice is narrower
   than the fragment (it reaches past the operand's top bit) and
   sign-extends. *)
let needs_wire (o : operand) ~lo ~fw =
  o.ext = Sext
  &&
  let w = Operand.width o in
  if lo < w then w - lo < fw else fw > 1

(* The bits of extended operand [o] at computation positions [lo..hi],
   position-exact, for a fragment [fw] wide: [Operand.zero_bit] when
   they are pure zero padding, and a slice narrower than the fragment
   that sign-extends is materialized at fragment width by a [Wire] so
   the extension cannot leak into the carry column. *)
let frag_operand st ctx (o : operand) ~lo ~hi ~fw =
  let w = Operand.width o in
  if lo < w then begin
    let shi = o.lo + Int.min hi (w - 1) and slo = o.lo + lo in
    if w - lo >= fw then { src = o.src; hi = shi; lo = slo; ext = Zext }
    else if o.ext = Sext then wire st ctx ~fw { o with hi = shi; lo = slo }
    else { o with hi = shi; lo = slo }
  end
  else
    match o.ext with
    | Zext -> Operand.zero_bit
    | Sext ->
        if fw <= 1 then { o with lo = o.hi; ext = Zext }
        else wire st ctx ~fw { o with lo = o.hi }

(* No carry in: physically distinct from every real operand. *)
let no_cin = { src = Input ""; hi = -1; lo = -1; ext = Zext }

(* The fragment chain of one multi-fragment addition over (already
   mapped) summands [a], [b] and carry in [cin]: fragment [index] adds
   the summands' bits [f_lo..f_hi] and the carry out of the fragment
   below, one bit wider than its slice unless it is the top one.  Each
   fragment is created before the chain above it, and its sum slice is
   consed onto that chain's; a [Concat] reassembles them.  Returns the
   Concat's id. *)
let build_fragments st ctx (n : node) a b cin frags =
  let op_name = op_name n in
  let plen = String.length op_name in
  if Bytes.length st.label < plen + 48 then
    st.label <- Bytes.create (2 * (plen + 48));
  Bytes.blit_string op_name 0 st.label 0 plen;
  let rec chain frags index cin =
    match frags with
    | [] -> []
    | (f : Mobility.frag) :: rest ->
        let fw = f.f_hi - f.f_lo + 1 in
        let x = frag_operand st ctx a ~lo:f.f_lo ~hi:f.f_hi ~fw in
        let y = frag_operand st ctx b ~lo:f.f_lo ~hi:f.f_hi ~fw in
        let buf = st.label in
        Bytes.unsafe_set buf plen '[';
        let pos = Hls_util.Decimal.put_int buf (plen + 1) f.f_hi in
        Bytes.unsafe_set buf pos ':';
        let pos = Hls_util.Decimal.put_int buf (pos + 1) f.f_lo in
        Bytes.unsafe_set buf pos ']';
        let id =
          mk st ctx ~src:(Frag { src = n.id; index })
            ~window:(f.f_asap, f.f_alap) Add
            ~width:(match rest with [] -> fw | _ :: _ -> fw + 1)
            ~label:(Bytes.sub_string buf 0 (pos + 1))
            ~origin:
              (Some { orig_op = op_name; orig_lo = f.f_lo; orig_hi = f.f_hi })
            (if cin == no_cin then [ x; y ] else [ x; y; cin ])
        in
        let piece = whole id ~width:fw in
        piece
        :: chain rest (index + 1) { src = Node id; hi = fw; lo = fw; ext = Zext }
  in
  mk st ctx ~src:Free ~window:st.free Concat ~width:n.width
    ~label:(op_name ^ ".val") ~origin:None (chain frags 0 cin)

let free_window plan = (1, plan.Mobility.latency)

(* O(nodes): each fragment's window is its (ASAP, ALAP) pair in [plan]. *)
let windows_of plan srcs =
  let free = free_window plan in
  Array.map
    (function
      | Free -> free
      | Frag { src; index } ->
          let f = List.nth plan.Mobility.per_node.(src) index in
          (f.Mobility.f_asap, f.Mobility.f_alap))
    srcs

(* Nodes and result bits a multi-fragment addition over summands [a],
   [b] becomes: per fragment, its addition (one bit wider unless it is
   the top one) and any sign-extension wires; then the Concat. *)
let rec chain_size (a : operand) (b : operand) frags ~nodes ~bits =
  match frags with
  | [] -> (nodes + 1, bits)
  | (f : Mobility.frag) :: rest ->
      let fw = f.f_hi - f.f_lo + 1 in
      let wires =
        Bool.to_int (needs_wire a ~lo:f.f_lo ~fw)
        + Bool.to_int (needs_wire b ~lo:f.f_lo ~fw)
      in
      let carry_out = match rest with [] -> 0 | _ :: _ -> 1 in
      chain_size a b rest ~nodes:(nodes + 1 + wires)
        ~bits:(bits + fw + carry_out + (wires * fw))

(* The fresh rebuild, in one pass: every node's net rows are written as
   the node is created, so the graph and its net come out together.
   A first walk over the plan counts the nodes and bits exactly (a
   mapped operand keeps its source operand's width and extension), so
   no buffer is regrown or trimmed. *)
let build graph (plan : Mobility.plan) =
  let n_nodes = ref 0 and n_bits = ref 0 in
  for id = 0 to Graph.node_count graph - 1 do
    let n = Graph.node graph id in
    match (n.kind, plan.per_node.(id), n.operands) with
    | Add, (_ :: _ :: _ as frags), a :: b :: _ ->
        let nodes, bits = chain_size a b frags ~nodes:0 ~bits:n.width in
        n_nodes := !n_nodes + nodes;
        n_bits := !n_bits + bits
    | _ ->
        incr n_nodes;
        n_bits := !n_bits + n.width
  done;
  let free = free_window plan in
  let st =
    {
      rows = Bitnet.writer ~nodes:!n_nodes ~bits:!n_bits;
      srcs = Array.make !n_nodes Free;
      wins = Array.make !n_nodes free;
      len = 0;
      free;
      label = Bytes.create 64;
    }
  in
  let g =
    Rewrite.run ~name:(Graph.name graph ^ "_frag") ~capacity:!n_nodes graph
      ~f:(fun ctx n ->
        let map = Rewrite.map_operand in
        whole ~width:n.width
          (match (n.kind, plan.per_node.(n.id), n.operands) with
          | Add, [], _ ->
              add_copy st ctx n ~src:Free ~window:free
          | Add, [ f ], _ ->
              (* Unfragmented addition: copy, carrying its window. *)
              add_copy st ctx n ~src:(Frag { src = n.id; index = 0 })
                ~window:(f.f_asap, f.f_alap)
          | Add, frags, [ a; b ] ->
              build_fragments st ctx n (map ctx a) (map ctx b) no_cin frags
          | Add, frags, [ a; b; c ] ->
              build_fragments st ctx n (map ctx a) (map ctx b) (map ctx c)
                frags
          | Add, _, _ -> invalid_arg "Transform.build_fragments: malformed add"
          | _ ->
              mk st ctx ~src:Free ~window:free n.kind ~width:n.width
                ~label:n.label ~origin:n.origin
                (Rewrite.map_operands ctx n.operands)))
  in
  assert (st.len = Graph.node_count g && st.len = !n_nodes);
  { graph = g; plan; source = graph; windows = st.wins; window_srcs = st.srcs;
    net = Bitnet.finish st.rows g }

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
