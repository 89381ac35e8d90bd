(** The pre-rewrite fragment binder, kept verbatim as an oracle.

    This is the list-based binder [Hls_alloc.Bind_frag] shipped before its
    flat-array rewrite: [op_groups] / [pack_groups] group and pack
    operations through structural lists and polymorphic hash tables,
    [fu_muxes] dedups operand configurations with [List.sort_uniq],
    [last_use_cycles] reads dependencies through a closure-based
    [dep_model], and [left_edge] is the first-fit linear scan.  The
    [reference_model] routes the two dependency queries through per-query
    {!Hls_timing.Bitdep} evaluation instead of the net.

    Production must make exactly the same decisions: the test suite
    checks [bind], [dedicated_fus], [stored_runs], [registers] and
    [Lifetime.left_edge] against this module with structural equality,
    and the timing bench fails its [--assert] gate when [Bind_frag.bind]
    is slower than [bind_reference]. *)

open Hls_dfg.Types
module Datapath = Hls_alloc.Datapath
module Lifetime = Hls_alloc.Lifetime
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module Frag_sched = Hls_sched.Frag_sched
module Bitnet = Hls_timing.Bitnet

let op_key (n : node) =
  match n.origin with
  | Some o -> o.orig_op
  | None -> if n.label = "" then Printf.sprintf "n%d" n.id else n.label

type op_group = {
  og_key : string;
  og_frags : node list;
  og_cycles : int list;  (** cycles where the operation is active *)
  og_width : int;  (** widest merged per-cycle addition *)
}

(* The two dependency queries binding needs, abstracted so {!bind_reference}
   can route them through per-query {!Hls_timing.Bitdep} evaluation — the
   executable pre-net baseline the timing benchmark compares against. *)
type dep_model = {
  dm_costly_width : node -> int;  (** δ-costly result bits of an addition *)
  dm_iter_uses : id:node_id -> bit:int -> (node_id -> int -> unit) -> unit;
      (** iterate the cross-node (source id, source bit) dependencies *)
}

let net_model (s : Frag_sched.t) =
  let net = s.Frag_sched.net in
  {
    dm_costly_width = (fun (n : node) -> Bitnet.costly_width net ~id:n.id);
    dm_iter_uses =
      (fun ~id ~bit f ->
        let base = net.Bitnet.bit_base.(id) in
        let b = base + bit in
        for k = net.Bitnet.dep_off.(b) to net.Bitnet.dep_off.(b + 1) - 1 do
          let d = net.Bitnet.deps.(k) in
          if d < base then begin
            let src = Bitnet.node_of_slot net d in
            f src (d - net.Bitnet.bit_base.(src))
          end
        done);
  }

let reference_model (s : Frag_sched.t) =
  let module Bitdep = Hls_timing.Bitdep in
  let g = Frag_sched.graph s in
  {
    dm_costly_width =
      (fun (n : node) ->
        List.length
          (List.filter
             (fun pos -> fst (Bitdep.bit_deps g n pos) > 0)
             (Hls_util.List_ext.range 0 n.width)));
    dm_iter_uses =
      (fun ~id ~bit f ->
        let _, deps = Bitdep.bit_deps g (Graph.node g id) bit in
        List.iter
          (function
            | Bitdep.Bit (Node src, i) -> f src i
            | Bitdep.Self _ | Bitdep.Bit (_, _) -> ())
          deps);
  }

(* Group fragments by original operation; fragments of one op sharing a
   cycle chain into one wider addition on the same adder.  δ-costly widths
   come from the schedule's net (O(1) prefix-sum queries). *)
let op_groups dm (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let by_op : (string, (int * node) list) Hashtbl.t = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then begin
        let key = op_key n in
        let prev = Option.value (Hashtbl.find_opt by_op key) ~default:[] in
        Hashtbl.replace by_op key ((s.Frag_sched.cycle_of.(n.id), n) :: prev)
      end)
    g;
  Hashtbl.fold
    (fun key frags acc ->
      let cycles = Hls_util.List_ext.dedup ~eq:( = ) (List.map fst frags) in
      let width_in cycle =
        Hls_util.List_ext.sum_by
          (fun (c, (n : node)) ->
            if c = cycle then dm.dm_costly_width n else 0)
          frags
      in
      let og_width =
        List.fold_left (fun acc c -> max acc (width_in c)) 1 cycles
      in
      { og_key = key; og_frags = List.map snd frags; og_cycles = cycles;
        og_width }
      :: acc)
    by_op []
  |> List.sort (fun a b -> compare a.og_key b.og_key)

(* The (source, range) configuration a fragment presents on operand port
   [port]. *)
let port_config (n : node) ~port =
  match List.nth_opt n.operands port with
  | Some o -> (o.src, o.hi, o.lo)
  | None -> (Const (Hls_bitvec.zero 1), 0, 0)

(* Distinct configurations over a fragment list's operand port [port]. *)
let port_configs frags ~port =
  List.sort_uniq compare (List.map (port_config ~port) frags)

(* One adder under construction.  The packer's two hot queries — "is this
   fu active in cycle c" and "how many of the candidate's (port, source
   slice) configurations does it already read" — are answered from a cycle
   bitset and an incrementally-grown configuration table instead of being
   recomputed from the full fragment list on every probe. *)
type packed_fu = {
  mutable pf_fu : Datapath.fu;
  mutable pf_frags : node list;
  pf_cycles : bool array;  (** indexed by cycle, [1..latency] *)
  pf_configs : (int, unit) Hashtbl.t;
      (** interned (port, configuration) ids the bound fragments read *)
  mutable pf_score : int;  (** shared-source count of the current probe *)
  mutable pf_gen : int;  (** probe generation [pf_score] belongs to *)
}

(* Pack operations onto adders: two operations may share one adder when
   they are never active in the same cycle (the conventional allocator's
   view of the transformed specification); an operation chained to another
   in the same cycle necessarily has its own adder.  Widest-first greedy
   packing keeps shared widths tight; among cycle-compatible adders the
   packer prefers the one whose already-bound fragments read the most of
   the candidate's operand sources — interconnect-aware binding that cuts
   the steering multiplexers the fragmented datapath otherwise pays. *)
let pack_groups (s : Frag_sched.t) groups =
  let fus : packed_fu list ref = ref [] in
  (* Intern (port, configuration) pairs once per fragment, so dedup and
     scoring work on small ints instead of structural slice descriptors.
     A [Node] source keys directly on its id; [Input]/[Const] sources pass
     through a small structural side table, so the hot path never hashes
     constants or names.  [cfg_fus] inverts the membership relation so a
     probe touches only the fus that actually read one of the candidate's
     configurations, with a generation stamp replacing a per-probe counter
     reset. *)
  let src_intern : (source, int) Hashtbl.t = Hashtbl.create 16 in
  let src_key = function
    | Node id -> id lsl 1
    | (Input _ | Const _) as src -> (
        match Hashtbl.find_opt src_intern src with
        | Some i -> (i lsl 1) lor 1
        | None ->
            let i = Hashtbl.length src_intern in
            Hashtbl.add src_intern src i;
            (i lsl 1) lor 1)
  in
  let intern : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let cfg_fus : (int, packed_fu list ref) Hashtbl.t = Hashtbl.create 64 in
  let intern_config port (n : node) =
    let src, hi, lo = port_config n ~port in
    let k = ((src_key src lsl 2) lor port, hi, lo) in
    match Hashtbl.find_opt intern k with
    | Some i -> i
    | None ->
        let i = Hashtbl.length intern in
        Hashtbl.add intern k i;
        i
  in
  let gen = ref 0 in
  List.iter
    (fun og ->
      let compatible =
        List.filter
          (fun pf ->
            List.for_all (fun c -> not pf.pf_cycles.(c)) og.og_cycles)
          !fus
      in
      let mine =
        List.sort_uniq compare
          (List.concat_map
             (fun port -> List.map (intern_config port) og.og_frags)
             [ 0; 1; 2 ])
      in
      let merge pf =
        pf.pf_fu <-
          { pf.pf_fu with
            Datapath.fu_width = max pf.pf_fu.Datapath.fu_width og.og_width;
            fu_width2 = max pf.pf_fu.Datapath.fu_width2 og.og_width };
        pf.pf_frags <- og.og_frags @ pf.pf_frags;
        List.iter (fun c -> pf.pf_cycles.(c) <- true) og.og_cycles;
        List.iter
          (fun k ->
            if not (Hashtbl.mem pf.pf_configs k) then begin
              Hashtbl.replace pf.pf_configs k ();
              match Hashtbl.find_opt cfg_fus k with
              | Some l -> l := pf :: !l
              | None -> Hashtbl.add cfg_fus k (ref [ pf ])
            end)
          mine
      in
      match compatible with
      | [] ->
          let pf =
            {
              pf_fu =
                {
                  Datapath.fu_label = og.og_key;
                  fu_class = Datapath.Adder;
                  fu_width = og.og_width;
                  fu_width2 = og.og_width;
                };
              pf_frags = [];
              pf_cycles = Array.make (s.Frag_sched.latency + 1) false;
              pf_configs = Hashtbl.create 8;
              pf_score = 0;
              pf_gen = 0;
            }
          in
          merge pf;
          fus := pf :: !fus
      | _ ->
          (* Best host: most shared operand sources, then least width
             growth. *)
          incr gen;
          List.iter
            (fun k ->
              match Hashtbl.find_opt cfg_fus k with
              | None -> ()
              | Some l ->
                  List.iter
                    (fun pf ->
                      if pf.pf_gen <> !gen then begin
                        pf.pf_gen <- !gen;
                        pf.pf_score <- 0
                      end;
                      pf.pf_score <- pf.pf_score + 1)
                    !l)
            mine;
          let scored =
            List.map
              (fun pf ->
                ( ( (if pf.pf_gen = !gen then pf.pf_score else 0),
                    -max 0 (og.og_width - pf.pf_fu.Datapath.fu_width) ),
                  pf ))
              compatible
          in
          merge (snd (Hls_util.List_ext.max_by fst scored)))
    groups;
  List.rev_map (fun pf -> (pf.pf_fu, pf.pf_frags)) !fus

let dedicated_fus_with dm (s : Frag_sched.t) =
  pack_groups s
    (List.sort (fun a b -> compare b.og_width a.og_width) (op_groups dm s))

(* Operand-steering muxes of one dedicated adder: one per input port whose
   fragments read distinct source slices, plus a carry-in mux when the
   carry source changes across fragments. *)
let fu_muxes ((fu : Datapath.fu), (frags : node list)) =
  if List.length frags <= 1 then []
  else begin
    let port_sources port = port_configs frags ~port in
    let data_muxes =
      List.filter_map
        (fun port ->
          let srcs = port_sources port in
          if List.length srcs > 1 then
            Some
              { Datapath.mux_inputs = List.length srcs; mux_width = fu.fu_width }
          else None)
        [ 0; 1 ]
    in
    let carry_srcs = port_sources 2 in
    if List.length carry_srcs > 1 then
      { Datapath.mux_inputs = List.length carry_srcs; mux_width = 1 }
      :: data_muxes
    else data_muxes
  end

(* Bit-granular storage: last cycle each node bit is read in, looking
   through glue (wiring adds no cycle). *)
let last_use_cycles dm (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let n_nodes = Graph.node_count g in
  let last_use =
    Array.init n_nodes (fun id -> Array.make (Graph.node g id).width 0)
  in
  let record_deps ~id ~bit cycle =
    dm.dm_iter_uses ~id ~bit (fun src i ->
        if cycle > last_use.(src).(i) then last_use.(src).(i) <- cycle)
  in
  (* Direct uses by additions, at the addition's cycle. *)
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then
        let cycle = s.Frag_sched.cycle_of.(n.id) in
        for pos = 0 to n.width - 1 do
          record_deps ~id:n.id ~bit:pos cycle
        done)
    g;
  (* Glue transparency: a use of a glue bit is a use of the bits it
     forwards, at the same cycle. *)
  for id = n_nodes - 1 downto 0 do
    let n = Graph.node g id in
    if n.kind <> Add then
      for pos = 0 to n.width - 1 do
        let u = last_use.(id).(pos) in
        if u > 0 then record_deps ~id ~bit:pos u
      done
  done;
  last_use

type stored_run = Hls_alloc.Bind_frag.stored_run = {
  sr_node : int;  (** node id *)
  sr_lo : int;  (** lowest stored bit *)
  sr_width : int;
  sr_from : int;  (** first cycle the run must be held in *)
  sr_to : int;  (** last cycle it is read in *)
}

(** Per-bit storage decisions: maximal runs of consecutive result bits with
    identical storage intervals.  The cycle-accurate RTL simulator checks
    every cross-cycle read against this set. *)
let stored_runs_with dm (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let last_use = last_use_cycles dm s in
  let runs = ref [] in
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then begin
        let bit_interval pos =
          let def = (Frag_sched.bit_time s n.id pos).Frag_sched.bt_cycle in
          Lifetime.storage_interval ~def ~last_use:last_use.(n.id).(pos)
        in
        (* One pass over the bits: emit a run at every interval change. *)
        let lo = ref 0 and cur = ref (bit_interval 0) in
        let flush hi =
          match !cur with
          | None -> ()
          | Some (from_, to_) ->
              runs :=
                {
                  sr_node = n.id;
                  sr_lo = !lo;
                  sr_width = hi - !lo;
                  sr_from = from_;
                  sr_to = to_;
                }
                :: !runs
        in
        for pos = 1 to n.width - 1 do
          let iv = bit_interval pos in
          if iv <> !cur then begin
            flush pos;
            lo := pos;
            cur := iv
          end
        done;
        flush n.width
      end)
    g;
  List.rev !runs

(** The pre-rewrite [Lifetime.left_edge].  Left-edge packing: sort by
    start, greedily reuse the first register whose last interval ends
    before the candidate starts.  Registers live
    in flat arrays mutated in place — the first-fit scan is the inner loop
    of binding, so it must not rebuild the register list per interval.
    Because intervals are placed in ascending [iv_from] order and a
    register only accepts an interval starting after its head ends, the
    head of [reg_values] always carries the register's latest end cycle. *)
let left_edge (intervals : Lifetime.interval list) =
  let sorted =
    List.sort
      (fun (a : Lifetime.interval) b ->
        match compare a.iv_from b.iv_from with
        | 0 -> compare b.iv_width a.iv_width
        | c -> c)
      intervals
  in
  let cap = max 1 (List.length sorted) in
  let widths = Array.make cap 0 in
  let values = Array.make cap [] in
  let last_to = Array.make cap 0 in
  let count = ref 0 in
  List.iter
    (fun (iv : Lifetime.interval) ->
      let rec place i =
        if i = !count then begin
          widths.(i) <- iv.iv_width;
          values.(i) <- [ iv ];
          last_to.(i) <- iv.iv_to;
          incr count
        end
        else if last_to.(i) < iv.iv_from then begin
          widths.(i) <- max widths.(i) iv.iv_width;
          values.(i) <- iv :: values.(i);
          last_to.(i) <- iv.iv_to
        end
        else place (i + 1)
      in
      place 0)
    sorted;
  List.init !count (fun i ->
      { Lifetime.reg_width = widths.(i); reg_values = values.(i) })

let registers_with dm (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let intervals =
    List.map
      (fun r ->
        {
          Lifetime.iv_label =
            Printf.sprintf "%s[%d+%d]"
              (op_key (Graph.node g r.sr_node))
              r.sr_lo r.sr_width;
          iv_width = r.sr_width;
          iv_from = r.sr_from;
          iv_to = r.sr_to;
        })
      (stored_runs_with dm s)
  in
  left_edge intervals

let bind_with dm (s : Frag_sched.t) =
  let fus_with_frags = dedicated_fus_with dm s in
  let fus = List.map fst fus_with_frags in
  let muxes = List.concat_map fu_muxes fus_with_frags in
  let registers = registers_with dm s in
  {
    Datapath.name = Graph.name (Frag_sched.graph s) ^ "_optimized";
    latency = s.Frag_sched.latency;
    chain_delta = Frag_sched.used_delta s;
    mux_levels = (if muxes = [] then 0 else 1);
    fus;
    registers;
    muxes;
    ctrl_states = s.Frag_sched.latency;
    ctrl_signals = Datapath.count_signals ~muxes ~registers;
  }

let stored_runs s = stored_runs_with (net_model s) s
let registers s = registers_with (net_model s) s
let dedicated_fus s = dedicated_fus_with (net_model s) s

(** The pre-rewrite production binder: net dependency model, list-based
    packer. *)
let bind s = bind_with (net_model s) s

(** The same binder through per-query {!Hls_timing.Bitdep} evaluation —
    the pre-net baseline the timing bench prices [Bind_frag.bind]
    against. *)
let bind_reference s = bind_with (reference_model s) s
