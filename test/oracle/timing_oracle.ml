(** The per-query timing references, kept as oracles: arrival, deadline,
    fragmentation plan and fragment schedule evaluated through
    {!Hls_timing.Bitdep.bit_deps} one [(node, bit)] at a time, with no
    {!Hls_timing.Bitnet}.  They are the implementations the flat kernels
    replaced; the test suite checks [Arrival.of_net], [Deadline.of_net],
    [Mobility.compute] and [Frag_sched.schedule] against them, and
    [bench timing] prices the kernels against them. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Bitdep = Hls_timing.Bitdep
module Bitnet = Hls_timing.Bitnet
module Mobility = Hls_fragment.Mobility
module Transform = Hls_fragment.Transform
module Frag_sched = Hls_sched.Frag_sched

(** Per-bit slots in the flat [bit_base] layout of {!Hls_timing.Bitnet}. *)
type slots = { bit_base : int array; slots : int array }

let slot t ~id ~bit = t.slots.(t.bit_base.(id) + bit)
let critical_delta t = Array.fold_left max 0 t.slots

let bases_of_graph graph =
  let n_nodes = Graph.node_count graph in
  let bit_base = Array.make (n_nodes + 1) 0 in
  for id = 0 to n_nodes - 1 do
    bit_base.(id + 1) <- bit_base.(id) + (Graph.node graph id).width
  done;
  bit_base

(* ---- Arrival.compute_reference ---- *)

let source_slot t = function
  | Input _ | Const _ -> fun _ -> 0
  | Node id -> fun bit -> t.slots.(t.bit_base.(id) + bit)

let dep_slot t ~base = function
  | Bitdep.Self j -> t.slots.(base + j)
  | Bitdep.Bit (src, i) -> source_slot t src i

(** Arrival slots of every bit, one [bit_deps] query per bit. *)
let arrival graph =
  let bit_base = bases_of_graph graph in
  let t = { bit_base; slots = Array.make bit_base.(Array.length bit_base - 1) 0 } in
  Graph.iter_nodes
    (fun n ->
      let base = bit_base.(n.id) in
      for pos = 0 to n.width - 1 do
        let cost, deps = Bitdep.bit_deps graph n pos in
        let ready =
          List.fold_left (fun acc d -> max acc (dep_slot t ~base d)) 0 deps
        in
        t.slots.(base + pos) <- ready + cost
      done)
    graph;
  t

(* ---- Deadline.compute_reference ---- *)

(** Deadline slots under a [total_slots] budget ([caps id bit] tightens
    single bits), one [bit_deps] query per bit, pushed backwards. *)
let deadline ?caps graph ~total_slots =
  if total_slots < 0 then invalid_arg "Deadline.compute: negative budget";
  let bit_base = bases_of_graph graph in
  let n_nodes = Graph.node_count graph in
  let slots = Array.make bit_base.(n_nodes) total_slots in
  (match caps with
  | None -> ()
  | Some f ->
      for id = 0 to n_nodes - 1 do
        let base = bit_base.(id) in
        for bit = 0 to bit_base.(id + 1) - base - 1 do
          let c = f id bit in
          if c < total_slots then slots.(base + bit) <- c
        done
      done);
  let tighten src bit bound =
    match src with
    | Input _ | Const _ -> ()
    | Node id ->
        let b = bit_base.(id) + bit in
        slots.(b) <- min slots.(b) bound
  in
  for id = n_nodes - 1 downto 0 do
    let n = Graph.node graph id in
    let base = bit_base.(id) in
    for pos = n.width - 1 downto 0 do
      let cost, deps = Bitdep.bit_deps graph n pos in
      let bound = slots.(base + pos) - cost in
      List.iter
        (function
          | Bitdep.Self j -> slots.(base + j) <- min slots.(base + j) bound
          | Bitdep.Bit (src, i) -> tighten src i bound)
        deps
    done
  done;
  { bit_base; slots }

(* ---- Mobility.compute_reference ---- *)

let cycle_of t ~n_bits ~id ~bit =
  max 1 (Hls_util.Int_math.ceil_div (slot t ~id ~bit) n_bits)

(* The list-based fragment runs of one addition: a (ASAP, ALAP) pair per
   bit, grouped into maximal equal runs. *)
let node_fragments arr dl ~n_bits (n : node) =
  let pairs =
    List.map
      (fun bit ->
        ( cycle_of arr ~n_bits ~id:n.id ~bit,
          cycle_of dl ~n_bits ~id:n.id ~bit ))
      (Hls_util.List_ext.range 0 n.width)
  in
  let runs = Hls_util.List_ext.group_runs ~eq:( = ) pairs in
  let _, frags =
    List.fold_left
      (fun (lo, acc) run ->
        let width = List.length run in
        let asap, alap = List.hd run in
        ( lo + width,
          { Mobility.f_lo = lo; f_hi = lo + width - 1; f_asap = asap;
            f_alap = alap }
          :: acc ))
      (0, []) runs
  in
  List.rev frags

(** List-based δ-costly width of a fragment. *)
let costly_width graph (n : node) (f : Mobility.frag) =
  List.length
    (List.filter
       (fun pos -> fst (Bitdep.bit_deps graph n pos) > 0)
       (Hls_util.List_ext.range f.f_lo (f.f_hi + 1)))

(** The [`Coalesced] merge of adjacent fragments, per-query throughout. *)
let coalesce arr dl graph ~n_bits (n : node) frags =
  let merge (a : Mobility.frag) (b : Mobility.frag) =
    let asap = max a.f_asap b.f_asap and alap = min a.f_alap b.f_alap in
    if asap > alap then None
    else
      let candidate =
        { Mobility.f_lo = a.f_lo; f_hi = b.f_hi; f_asap = asap; f_alap = alap }
      in
      if costly_width graph n candidate > n_bits then None
      else
        let feasible_at c =
          let ok = ref true in
          let k = ref 0 in
          for bit = candidate.f_lo to candidate.f_hi do
            let cost, _ = Bitdep.bit_deps graph n bit in
            if cost > 0 then incr k;
            let s = ((c - 1) * n_bits) + max 1 !k in
            if slot arr ~id:n.id ~bit > s || slot dl ~id:n.id ~bit < s then
              ok := false
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

(** The fragmentation plan, per-query throughout: the same plan as
    [Mobility.compute], and an [Invalid_argument] on the same inputs. *)
let mobility ?n_bits ?(policy = `Full) graph ~latency =
  if latency < 1 then invalid_arg "Mobility.compute: latency must be >= 1";
  if
    not
      (Graph.fold_nodes
         (fun acc n -> acc && (n.kind = Add || is_glue n.kind))
         true graph)
  then
    invalid_arg
      "Mobility.compute: graph must be in additive kernel form (run \
       operative kernel extraction first)";
  let arr = arrival graph in
  let critical = critical_delta arr in
  let n_bits =
    match n_bits with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Mobility.compute: n_bits must be >= 1"
    | None ->
        Hls_timing.Critical_path.cycle_delta_for_latency ~critical ~latency
  in
  let dl = deadline graph ~total_slots:(latency * n_bits) in
  if Array.exists2 (fun d a -> d < a) dl.slots arr.slots then
    invalid_arg
      (Printf.sprintf
         "Mobility.compute: infeasible point: %d cycles of %d bits cannot \
          cover a %d-delta critical path"
         latency n_bits critical);
  let per_node =
    Array.init (Graph.node_count graph) (fun id ->
        let n = Graph.node graph id in
        match n.kind with
        | Add -> (
            let frags = node_fragments arr dl ~n_bits n in
            match policy with
            | `Full -> frags
            | `Coalesced -> coalesce arr dl graph ~n_bits n frags)
        | _ -> [])
  in
  { Mobility.latency; n_bits; critical; per_node }

(* ---- Frag_sched.schedule_reference ---- *)

let window_caps (tr : Transform.t) ~latency ~n_bits g =
  let caps =
    Array.init (Graph.node_count g) (fun id ->
        match (Graph.node g id).kind with
        | Add -> snd tr.Transform.windows.(id) * n_bits
        | _ -> latency * n_bits)
  in
  fun id _bit -> caps.(id)

(** The fragment scheduler with per-node bit-time arrays and per-query
    dependencies: the same placement (or the same {!Frag_sched.Infeasible}
    message) as [Frag_sched.schedule]. *)
let schedule ?(balance = true) (tr : Transform.t) : Frag_sched.t =
  let open Frag_sched in
  let g = tr.Transform.graph in
  let plan = tr.Transform.plan in
  let latency = plan.Mobility.latency in
  let n_bits = plan.Mobility.n_bits in
  let n_nodes = Graph.node_count g in
  let cycle_of = Array.make n_nodes 0 in
  let bit_time = Array.make n_nodes [||] in
  let dl =
    deadline g
      ~total_slots:(latency * n_bits)
      ~caps:(window_caps tr ~latency ~n_bits g)
  in
  let usage = Array.make latency 0 in
  let absolute { bt_cycle; bt_slot } = ((bt_cycle - 1) * n_bits) + bt_slot in
  let time_of_source = function
    | Input _ | Const _ -> fun _ -> { bt_cycle = 0; bt_slot = 0 }
    | Node id -> fun bit -> bit_time.(id).(bit)
  in
  let try_place (n : node) ~is_add ~cycle =
    let times = Array.make n.width { bt_cycle = 0; bt_slot = 0 } in
    let ok = ref true in
    for pos = 0 to n.width - 1 do
      let cost, deps = Bitdep.bit_deps g n pos in
      let dep_time d =
        match d with
        | Bitdep.Self j -> times.(j)
        | Bitdep.Bit (src, i) -> time_of_source src i
      in
      if is_add then begin
        let ready =
          List.fold_left
            (fun acc d ->
              let t = dep_time d in
              if t.bt_cycle > cycle then begin
                ok := false;
                acc
              end
              else if t.bt_cycle = cycle then max acc t.bt_slot
              else acc)
            0 deps
        in
        let s = ready + cost in
        if s > n_bits then ok := false;
        times.(pos) <- { bt_cycle = cycle; bt_slot = s };
        if absolute times.(pos) > slot dl ~id:n.id ~bit:pos then ok := false
      end
      else begin
        let t =
          List.fold_left
            (fun acc d ->
              let t = dep_time d in
              if
                t.bt_cycle > acc.bt_cycle
                || (t.bt_cycle = acc.bt_cycle && t.bt_slot > acc.bt_slot)
              then t
              else acc)
            { bt_cycle = 0; bt_slot = 0 } deps
        in
        times.(pos) <- t
      end
    done;
    if !ok then Some times else None
  in
  Graph.iter_nodes
    (fun (n : node) ->
      match n.kind with
      | Add ->
          let w_asap, w_alap = tr.Transform.windows.(n.id) in
          let weight =
            List.length
              (List.filter
                 (fun pos -> fst (Bitdep.bit_deps g n pos) > 0)
                 (Hls_util.List_ext.range 0 n.width))
          in
          let best = ref None in
          for cycle = w_asap to w_alap do
            match try_place n ~is_add:true ~cycle with
            | Some times -> (
                let u = usage.(cycle - 1) in
                match !best with
                | Some _ when not balance -> ()
                | Some (_, _, bu) when bu <= u -> ()
                | _ -> best := Some (cycle, times, u))
            | None -> ()
          done;
          (match !best with
          | None ->
              raise
                (Infeasible
                   (Printf.sprintf
                      "fragment %d (%s) has no feasible cycle in [%d,%d]" n.id
                      n.label w_asap w_alap))
          | Some (cycle, times, _) ->
              cycle_of.(n.id) <- cycle;
              bit_time.(n.id) <- times;
              usage.(cycle - 1) <- usage.(cycle - 1) + weight)
      | _ -> (
          match try_place n ~is_add:false ~cycle:0 with
          | Some times -> bit_time.(n.id) <- times
          | None -> assert false))
    g;
  (* Flattened into the net's layout only here, once, so the placement
     above stays the independent per-node derivation. *)
  let net = Bitnet.build g in
  let flat f = Array.concat (Array.to_list (Array.map (Array.map f) bit_time)) in
  { transformed = tr; latency; n_bits; cycle_of;
    bit_cycle = flat (fun bt -> bt.bt_cycle);
    bit_slot = flat (fun bt -> bt.bt_slot); net }
