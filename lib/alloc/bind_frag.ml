(** Allocation & binding for fragmented schedules: the "optimized
    specification" datapath.

    Following the paper, every *original* operation gets a dedicated adder
    whose width is the widest merged fragment the operation executes in any
    single cycle ("every adder is dedicated to calculate just one addition
    in the behavioural description").  Operand steering across cycles —
    different bit slices of the sources in different cycles — becomes
    multiplexers on the adder ports, and the carry link between fragments
    in different cycles becomes a 1-bit carry-select mux.

    Storage is allocated at *bit* granularity: a result bit is stored only
    if some consumer reads it in a later cycle, and consecutive such bits
    with identical storage intervals share one register; registers are then
    packed by the left-edge algorithm.  On the paper's Fig. 2 example this
    reproduces Table I exactly: cycle 1 stores C5, E4 and three carry-outs
    — five 1-bit registers after sharing.

    Binding runs once per design point of a latency sweep, so it works on
    flat int arrays: one pass over the schedule's Add nodes interns the
    original operations and the operand-port configurations to dense ints,
    and the packer, the mux count and the storage pass only compare ints. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Frag_sched = Hls_sched.Frag_sched
module Bitnet = Hls_timing.Bitnet
module Wordset = Hls_bitvec.Wordset

let op_key (n : node) =
  match n.origin with
  | Some o -> o.orig_op
  | None -> if n.label = "" then Printf.sprintf "n%d" n.id else n.label

(* Operand ports a fragment presents to its adder: the two data ports and
   the carry-in (port 2). *)
let n_ports = 3

(* Open-addressing intern table over int triples, sized once for at most
   [cap] keys (load at most 3/4): one flat array of 4-int slots (three key
   words, then id + 1, 0 marking an empty slot), linear probing.
   Interning allocates nothing per key. *)
type interner = { slots : int array; mask : int; mutable count : int }

let interner cap =
  let size = ref 16 in
  while 3 * !size < 4 * cap do
    size := 2 * !size
  done;
  { slots = Array.make (4 * !size) 0; mask = !size - 1; count = 0 }

let intern t a b c =
  let h = (a * 0x2545F491) + (b * 0x9E3779B1) + c in
  let rec probe i =
    let o = 4 * i in
    let id = t.slots.(o + 3) in
    if id = 0 then begin
      t.slots.(o) <- a;
      t.slots.(o + 1) <- b;
      t.slots.(o + 2) <- c;
      t.count <- t.count + 1;
      t.slots.(o + 3) <- t.count;
      t.count - 1
    end
    else if t.slots.(o) = a && t.slots.(o + 1) = b && t.slots.(o + 2) = c
    then id - 1
    else probe ((i + 1) land t.mask)
  in
  probe ((h lxor (h lsr 17)) land t.mask)

(* The binding view of one schedule, from one pass over its Add nodes.
   Operations are the original operations ([op_key]); a configuration is
   the (source, hi, lo) slice a fragment presents on one operand port, an
   absent port reading the 1-bit constant zero. *)
type ops = {
  op_keys : string array;
  op_frags : node list array;  (** descending node id *)
  op_cycles : int list array;  (** distinct cycles the operation runs in *)
  op_width : int array;  (** widest merged per-cycle addition, at least 1 *)
  node_cfg : int array;
      (** [id * n_ports + port]: interned configuration of an Add node's
          port *)
  n_cfgs : int;
}

let intern_ops (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let net = s.Frag_sched.net in
  let n_nodes = Graph.node_count g in
  let n_adds =
    Graph.fold_nodes (fun c (n : node) -> if n.kind = Add then c + 1 else c) 0 g
  in
  let op_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let keys = ref [] and n_ops = ref 0 in
  let frags = Array.make n_adds [] in
  let node_cfg = Array.make (n_nodes * n_ports) (-1) in
  (* A [Node] source keys on its id; [Input]/[Const] sources go through a
     small structural side table, numbered after the nodes. *)
  let side : (source, int) Hashtbl.t = Hashtbl.create 16 in
  let src_key = function
    | Node id -> id
    | (Input _ | Const _) as src -> (
        match Hashtbl.find_opt side src with
        | Some k -> k
        | None ->
            let k = n_nodes + Hashtbl.length side in
            Hashtbl.add side src k;
            k)
  in
  let absent = src_key (Const (Hls_bitvec.zero 1)) in
  let cfgs = interner (n_adds * n_ports) in
  (* Consecutive fragments mostly belong to one operation and share its
     key string: a physical-equality memo skips the string hash. *)
  let last_key = ref "" and last_op = ref (-1) in
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then begin
        let key = op_key n in
        let op =
          if !last_op >= 0 && key == !last_key then !last_op
          else
            match Hashtbl.find_opt op_ids key with
            | Some op -> op
            | None ->
                let op = !n_ops in
                Hashtbl.add op_ids key op;
                keys := key :: !keys;
                incr n_ops;
                op
        in
        last_key := key;
        last_op := op;
        frags.(op) <- n :: frags.(op);
        let rec ports p = function
          | _ when p = n_ports -> ()
          | [] ->
              node_cfg.((n.id * n_ports) + p) <-
                intern cfgs ((absent * n_ports) + p) 0 0;
              ports (p + 1) []
          | (o : operand) :: rest ->
              node_cfg.((n.id * n_ports) + p) <-
                intern cfgs ((src_key o.src * n_ports) + p) o.hi o.lo;
              ports (p + 1) rest
        in
        ports 0 n.operands
      end)
    g;
  let n_ops = !n_ops in
  let op_frags = Array.sub frags 0 n_ops in
  (* Per operation: its active cycles and the δ-costly width it adds in
     each (fragments sharing a cycle chain into one wider addition). *)
  let cyc_w = Array.make (s.Frag_sched.latency + 1) 0 in
  let cyc_stamp = Array.make (s.Frag_sched.latency + 1) (-1) in
  let op_cycles = Array.make n_ops [] and op_width = Array.make n_ops 1 in
  for op = 0 to n_ops - 1 do
    let cycles =
      List.fold_left
        (fun cycles (n : node) ->
          let c = s.Frag_sched.cycle_of.(n.id) in
          let cw = Bitnet.costly_width net ~id:n.id in
          if cyc_stamp.(c) = op then begin
            cyc_w.(c) <- cyc_w.(c) + cw;
            cycles
          end
          else begin
            cyc_stamp.(c) <- op;
            cyc_w.(c) <- cw;
            c :: cycles
          end)
        [] op_frags.(op)
    in
    op_cycles.(op) <- cycles;
    op_width.(op) <- List.fold_left (fun w c -> max w cyc_w.(c)) 1 cycles
  done;
  {
    op_keys = Array.of_list (List.rev !keys);
    op_frags;
    op_cycles;
    op_width;
    node_cfg;
    n_cfgs = cfgs.count;
  }

(* Pack operations onto adders: two operations may share one adder when
   they are never active in the same cycle (the conventional allocator's
   view of the transformed specification); an operation chained to another
   in the same cycle necessarily has its own adder.  Widest-first greedy
   packing (ties by operation key) keeps shared widths tight; among
   cycle-compatible adders the packer prefers the one whose already-bound
   fragments read the most of the candidate's operand configurations —
   interconnect-aware binding that cuts the steering multiplexers the
   fragmented datapath otherwise pays — then the least width growth.
   Candidates are scanned newest adder first and the first maximum wins.

   An adder's active cycles are an int bitmask, or a {!Wordset} when the
   latency does not fit one word.  Votes go through the inverted
   configuration→adder index with a generation stamp, so a probe touches
   only the adders that read one of the candidate's configurations. *)
let pack (s : Frag_sched.t) t =
  let latency = s.Frag_sched.latency in
  let n_ops = Array.length t.op_keys in
  let order = Array.init n_ops Fun.id in
  Array.stable_sort
    (fun a b ->
      match compare t.op_width.(b) t.op_width.(a) with
      | 0 -> String.compare t.op_keys.(a) t.op_keys.(b)
      | c -> c)
    order;
  let narrow = latency < Sys.int_size in
  let op_mask =
    if narrow then
      Array.map (List.fold_left (fun m c -> m lor (1 lsl c)) 0) t.op_cycles
    else [||]
  in
  let fu_label = Array.make n_ops "" and fu_width = Array.make n_ops 0 in
  let fu_frags = Array.make n_ops [] in
  let fu_mask = Array.make n_ops 0 in
  let fu_set = if narrow then [||] else Array.make n_ops (Wordset.create 0) in
  let fu_votes = Array.make n_ops 0 and fu_gen = Array.make n_ops (-1) in
  (* Per adder, the configurations its bound fragments read; per
     configuration, the adders that read it (the inverted index). *)
  let fu_cfgs = Array.make n_ops [] in
  let cfg_fus = Array.make t.n_cfgs [] in
  let cfg_stamp = Array.make t.n_cfgs (-1) in
  let cfg_held = Array.make t.n_cfgs (-1) in
  let mine = Array.make t.n_cfgs 0 in
  let n_fu = ref 0 in
  let rec vote gen = function
    | [] -> ()
    | a :: rest ->
        if fu_gen.(a) <> gen then begin
          fu_gen.(a) <- gen;
          fu_votes.(a) <- 1
        end
        else fu_votes.(a) <- fu_votes.(a) + 1;
        vote gen rest
  in
  let rec mark_held gen = function
    | [] -> ()
    | k :: rest ->
        if cfg_stamp.(k) = gen then cfg_held.(k) <- gen;
        mark_held gen rest
  in
  Array.iteri
    (fun gen op ->
      (* The candidate's distinct configurations. *)
      let m = ref 0 in
      List.iter
        (fun (n : node) ->
          for p = 0 to n_ports - 1 do
            let k = t.node_cfg.((n.id * n_ports) + p) in
            if cfg_stamp.(k) <> gen then begin
              cfg_stamp.(k) <- gen;
              mine.(!m) <- k;
              incr m
            end
          done)
        t.op_frags.(op);
      let m = !m in
      let w = t.op_width.(op) and om = if narrow then op_mask.(op) else 0 in
      let fits a =
        if narrow then fu_mask.(a) land om = 0
        else
          List.for_all
            (fun c -> not (Wordset.mem fu_set.(a) c))
            t.op_cycles.(op)
      in
      (* Vote only when some adder can host the operation at all. *)
      let first = ref (!n_fu - 1) in
      while !first >= 0 && not (fits !first) do
        decr first
      done;
      let best = ref (-1) and best_votes = ref 0 and best_growth = ref 0 in
      if !first >= 0 then begin
        for i = 0 to m - 1 do
          vote gen cfg_fus.(mine.(i))
        done;
        for a = !first downto 0 do
          if fits a then begin
            let votes = if fu_gen.(a) = gen then fu_votes.(a) else 0 in
            let growth = -max 0 (w - fu_width.(a)) in
            if
              !best < 0 || votes > !best_votes
              || (votes = !best_votes && growth > !best_growth)
            then begin
              best := a;
              best_votes := votes;
              best_growth := growth
            end
          end
        done
      end;
      let a =
        if !best >= 0 then !best
        else begin
          let a = !n_fu in
          incr n_fu;
          fu_label.(a) <- t.op_keys.(op);
          if not narrow then fu_set.(a) <- Wordset.create (latency + 1);
          a
        end
      in
      fu_width.(a) <- max fu_width.(a) w;
      fu_frags.(a) <- t.op_frags.(op) @ fu_frags.(a);
      if narrow then fu_mask.(a) <- fu_mask.(a) lor op_mask.(op)
      else List.iter (Wordset.add fu_set.(a)) t.op_cycles.(op);
      (* Record the configurations new to the adder.  Without a vote it
         reads none of them yet. *)
      if fu_gen.(a) = gen then mark_held gen fu_cfgs.(a);
      for i = 0 to m - 1 do
        let k = mine.(i) in
        if cfg_held.(k) <> gen then begin
          cfg_fus.(k) <- a :: cfg_fus.(k);
          fu_cfgs.(a) <- k :: fu_cfgs.(a)
        end
      done)
    order;
  Array.init !n_fu (fun a ->
      ( {
          Datapath.fu_label = fu_label.(a);
          fu_class = Datapath.Adder;
          fu_width = fu_width.(a);
          fu_width2 = fu_width.(a);
        },
        fu_frags.(a) ))

(* Operand-steering muxes of the dedicated adders: per adder, a carry-in
   mux when the carry source changes across its fragments, then one per
   data port whose fragments read distinct source slices.  Distinct
   configurations are counted with a stamp per (adder, port). *)
let fu_muxes t fus =
  let stamp = Array.make t.n_cfgs (-1) in
  let gen = ref 0 in
  let distinct frags p =
    incr gen;
    List.fold_left
      (fun d (n : node) ->
        let k = t.node_cfg.((n.id * n_ports) + p) in
        if stamp.(k) = !gen then d
        else begin
          stamp.(k) <- !gen;
          d + 1
        end)
      0 frags
  in
  Array.fold_right
    (fun ((fu : Datapath.fu), frags) acc ->
      match frags with
      | [] | [ _ ] -> acc
      | _ ->
          let mux p width acc =
            let d = distinct frags p in
            if d > 1 then { Datapath.mux_inputs = d; mux_width = width } :: acc
            else acc
          in
          mux 2 1 [] @ mux 0 fu.fu_width (mux 1 fu.fu_width acc))
    fus []

(** The packed adders with the fragment nodes bound to each — the physical
    sharing structure the netlist elaborator realizes. *)
let dedicated_fus s = Array.to_list (pack s (intern_ops s))

(* Bit-granular storage: last cycle each net bit is read in, looking
   through glue (wiring adds no cycle).  Reads the net's CSR arrays
   directly; [Input]/[Const] bits are not in the net and never stored. *)
let last_use (s : Frag_sched.t) =
  let net = s.Frag_sched.net in
  let g = Frag_sched.graph s in
  let base = net.Bitnet.bit_base and off = net.Bitnet.dep_off in
  let deps = net.Bitnet.deps and flat = net.Bitnet.flat_deps in
  let lu = Array.make (Bitnet.total_bits net) 0 in
  let record b cycle =
    for k = off.(b) to off.(b + 1) - 1 do
      if not (Bitnet.dep_is_self deps.(k)) then begin
        let src = flat.(k) in
        if cycle > lu.(src) then lu.(src) <- cycle
      end
    done
  in
  (* Direct uses by additions, at the addition's cycle. *)
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then begin
        let cycle = s.Frag_sched.cycle_of.(n.id) in
        for b = base.(n.id) to base.(n.id + 1) - 1 do
          record b cycle
        done
      end)
    g;
  (* Glue transparency: a use of a glue bit is a use of the bits it
     forwards, at the same cycle. *)
  for id = Graph.node_count g - 1 downto 0 do
    if (Graph.node g id).kind <> Add then
      for b = base.(id) to base.(id + 1) - 1 do
        let u = lu.(b) in
        if u > 0 then record b u
      done
  done;
  lu

type stored_run = {
  sr_node : int;  (** node id *)
  sr_lo : int;  (** lowest stored bit *)
  sr_width : int;
  sr_from : int;  (** first cycle the run must be held in *)
  sr_to : int;  (** last cycle it is read in *)
}

(** Per-bit storage decisions: maximal runs of consecutive result bits with
    identical storage intervals.  The cycle-accurate RTL simulator checks
    every cross-cycle read against this set. *)
let stored_runs (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let base = s.Frag_sched.net.Bitnet.bit_base in
  let lu = last_use s in
  let runs = ref [] in
  Graph.iter_nodes
    (fun (n : node) ->
      if n.kind = Add then begin
        let b0 = base.(n.id) in
        (* One pass over the bits: emit a run at every change of storage
           interval [from_, to_]; [from_ = min_int] marks a bit that never
           crosses a cycle boundary. *)
        let lo = ref 0 and cur_from = ref min_int and cur_to = ref 0 in
        let flush hi =
          if !cur_from <> min_int then
            runs :=
              {
                sr_node = n.id;
                sr_lo = !lo;
                sr_width = hi - !lo;
                sr_from = !cur_from;
                sr_to = !cur_to;
              }
              :: !runs
        in
        for pos = 0 to n.width - 1 do
          let def = s.Frag_sched.bit_cycle.(b0 + pos) and u = lu.(b0 + pos) in
          let from_ = if u > def then def + 1 else min_int in
          let to_ = if u > def then u else 0 in
          if pos = 0 then begin
            cur_from := from_;
            cur_to := to_
          end
          else if from_ <> !cur_from || to_ <> !cur_to then begin
            flush pos;
            lo := pos;
            cur_from := from_;
            cur_to := to_
          end
        done;
        flush n.width
      end)
    g;
  List.rev !runs

(** Left-edge-packed registers over the stored runs. *)
let registers s =
  let g = Frag_sched.graph s in
  Lifetime.left_edge
    (List.map
       (fun r ->
         {
           Lifetime.iv_label =
             String.concat ""
               [
                 op_key (Graph.node g r.sr_node);
                 "[";
                 string_of_int r.sr_lo;
                 "+";
                 string_of_int r.sr_width;
                 "]";
               ];
           iv_width = r.sr_width;
           iv_from = r.sr_from;
           iv_to = r.sr_to;
         })
       (stored_runs s))

let span name f = Hls_telemetry.with_span ~cat:"alloc" name f

(** Build the optimized datapath summary from a fragment schedule. *)
let bind (s : Frag_sched.t) =
  let fus, muxes =
    span "bind.pack" (fun () ->
        let t = intern_ops s in
        let fus = pack s t in
        (fus, fu_muxes t fus))
  in
  let registers = span "bind.registers" (fun () -> registers s) in
  {
    Datapath.name = Graph.name (Frag_sched.graph s) ^ "_optimized";
    latency = s.Frag_sched.latency;
    chain_delta = Frag_sched.used_delta s;
    mux_levels = (if muxes = [] then 0 else 1);
    fus = Array.fold_right (fun (fu, _) acc -> fu :: acc) fus [];
    registers;
    muxes;
    ctrl_states = s.Frag_sched.latency;
    ctrl_signals = Datapath.count_signals ~muxes ~registers;
  }
