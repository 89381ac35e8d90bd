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
    flat int arrays.  What depends only on the fragmented graph — the
    original operations, their fragments and the interned operand-port
    configurations — is a {!view}, built once per graph and shared by
    every schedule of it; the packer, the mux count and the storage pass
    only compare ints. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Frag_sched = Hls_sched.Frag_sched
module Bitnet = Hls_timing.Bitnet
module Decimal = Hls_util.Decimal

let op_key (n : node) =
  match n.origin with
  | Some o -> o.orig_op
  | None -> if n.label = "" then Printf.sprintf "n%d" n.id else n.label

(* Operand ports a fragment presents to its adder: the two data ports and
   the carry-in (port 2). *)
let n_ports = 3

(* The binding view of one fragmented graph.  Operations are the original
   operations ([op_key]); a configuration is the (source, hi, lo) slice a
   fragment presents on one operand port, an absent port reading the
   1-bit constant zero.  Fragment [i] is [frags.(i)]; operation [op] owns
   [frags.(frag_off.(op)) .. frags.(frag_off.(op + 1) - 1)], in descending
   node id. *)
type view = {
  v_graph : Graph.t;
  op_of : int array;  (** per node id: its operation, -1 for glue *)
  op_keys : string array;
  by_key : int array;  (** operations in ascending key order *)
  frag_off : int array;
  frags : int array;
  frag_cfg : int array;
      (** [i * n_ports + port]: interned configuration of fragment [i] *)
  n_cfgs : int;
  cfg_hub : int array;  (** per configuration: its hub bit, or -1 *)
  n_ordinary : int;
      (** fragment ports reading a configuration that is not a hub *)
}

let span name f = Hls_telemetry.with_span ~cat:"alloc" name f

(* The first 7 bytes of [key] as a non-negative int, zero-padded: ints
   order as [String.compare] orders keys that differ in those bytes. *)
let key_prefix key =
  let p = ref 0 in
  for i = 0 to 6 do
    p := (!p lsl 8) lor if i < String.length key then Char.code key.[i] else 0
  done;
  !p

(* Hubs: the configurations most fragments read — in practice the
   zero carry-in of the lowest fragments and a few widely read slices.
   Up to 62 configurations (one int of bits) read at least [hub_reads]
   times, most read first, each numbered by its bit; -1 for the others. *)
let hub_reads = 32

let hubs reads n_cfgs =
  let hot = ref [] in
  for k = n_cfgs - 1 downto 0 do
    if reads.(k) >= hub_reads then hot := k :: !hot
  done;
  let hot =
    List.stable_sort (fun a b -> Int.compare reads.(b) reads.(a)) !hot
  in
  let hub = Array.make n_cfgs (-1) in
  List.iteri (fun h k -> if h < Sys.int_size - 1 then hub.(k) <- h) hot;
  hub

let view_of_graph g =
  let n_nodes = Graph.node_count g in
  let op_of = Array.make n_nodes (-1) in
  let op_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let keys = ref [] and n_ops = ref 0 and n_adds = ref 0 in
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
        op_of.(n.id) <- op;
        incr n_adds
      end)
    g;
  let n_ops = !n_ops and n_adds = !n_adds in
  let op_keys = Array.of_list (List.rev !keys) in
  let frag_off = Array.make (n_ops + 1) 0 in
  Array.iter
    (fun op -> if op >= 0 then frag_off.(op + 1) <- frag_off.(op + 1) + 1)
    op_of;
  for op = 1 to n_ops do
    frag_off.(op) <- frag_off.(op) + frag_off.(op - 1)
  done;
  (* Configurations are interned per source: [head.(src)] chains the
     distinct (port, hi, lo) triples read from it, the port folded into
     [lo_of] as [lo * n_ports + port].  A [Node]
     source keys on its id; [Input]/[Const] sources go through a small
     structural side table, numbered after the nodes, behind a
     physical-equality memo of the last one read on each port (the
     fragments of one operation share their source values). *)
  let side : (source, int) Hashtbl.t = Hashtbl.create 16 in
  let last_src = Array.make n_ports (Node 0) in
  let last_side = Array.make n_ports 0 in
  let src_key p = function
    | Node id -> id
    | src when src == last_src.(p) -> last_side.(p)
    | (Input _ | Const _) as src ->
        let k =
          match Hashtbl.find_opt side src with
          | Some k -> k
          | None ->
              let k = n_nodes + Hashtbl.length side in
              Hashtbl.add side src k;
              k
        in
        last_src.(p) <- src;
        last_side.(p) <- k;
        k
  in
  let absent = src_key 0 (Const (Hls_bitvec.zero 1)) in
  let cap = n_adds * n_ports in
  let head = ref (Array.make (n_nodes + 16) (-1)) in
  let next = Array.make cap 0 and hi_of = Array.make cap 0 in
  let lo_of = Array.make cap 0 and reads = Array.make cap 0 in
  let n_cfgs = ref 0 in
  let intern slot port hi lo =
    let lo = (lo * n_ports) + port in
    if slot >= Array.length !head then begin
      let h = Array.make (2 * slot) (-1) in
      Array.blit !head 0 h 0 (Array.length !head);
      head := h
    end;
    let e = ref !head.(slot) in
    while !e >= 0 && not (hi_of.(!e) = hi && lo_of.(!e) = lo) do
      e := next.(!e)
    done;
    if !e < 0 then begin
      e := !n_cfgs;
      incr n_cfgs;
      next.(!e) <- !head.(slot);
      hi_of.(!e) <- hi;
      lo_of.(!e) <- lo;
      !head.(slot) <- !e
    end;
    reads.(!e) <- reads.(!e) + 1;
    !e
  in
  (* Fragments fill their operation's range in descending id, and their
     ports are interned on the way. *)
  let fill = Array.sub frag_off 0 (max 1 n_ops) in
  let frags = Array.make n_adds 0 and frag_cfg = Array.make cap 0 in
  for id = n_nodes - 1 downto 0 do
    let op = op_of.(id) in
    if op >= 0 then begin
      let i = fill.(op) in
      fill.(op) <- i + 1;
      frags.(i) <- id;
      let ops = ref (Graph.node g id).operands in
      for p = 0 to n_ports - 1 do
        let j = (i * n_ports) + p in
        match !ops with
        | [] -> frag_cfg.(j) <- intern absent p 0 0
        | (o : operand) :: rest ->
            frag_cfg.(j) <- intern (src_key p o.src) p o.hi o.lo;
            ops := rest
      done
    end
  done;
  let prefix = Array.map key_prefix op_keys in
  let by_key = Array.init n_ops Fun.id in
  Array.stable_sort
    (fun a b ->
      match Int.compare prefix.(a) prefix.(b) with
      | 0 -> String.compare op_keys.(a) op_keys.(b)
      | c -> c)
    by_key;
  let n_cfgs = !n_cfgs in
  let cfg_hub = hubs reads n_cfgs in
  let n_ordinary = ref 0 in
  Array.iter (fun k -> if cfg_hub.(k) < 0 then incr n_ordinary) frag_cfg;
  { v_graph = g; op_of; op_keys; by_key; frag_off; frags; frag_cfg; n_cfgs;
    cfg_hub; n_ordinary = !n_ordinary }

(** The binding view of a schedule's fragmented graph. *)
let view (s : Frag_sched.t) =
  span "bind.view" (fun () -> view_of_graph (Frag_sched.graph s))

let view_for ?view:v (s : Frag_sched.t) =
  match v with
  | None -> view s
  | Some v when v.v_graph == Frag_sched.graph s -> v
  | Some _ ->
      invalid_arg "Bind_frag: view built from another graph than the schedule"

(* Bits per cycle-set word: cycle [c] is bit [c mod 63] of word [c / 63]. *)
let word_bits = Sys.int_size

(* The schedule-dependent half, per operation: the δ-costly width it adds
   in its widest cycle (fragments sharing a cycle chain into one wider
   addition; at least 1) and its active cycles as [words] ints each. *)
let op_cycles v (s : Frag_sched.t) ~words =
  let net = s.Frag_sched.net and cycle_of = s.Frag_sched.cycle_of in
  let n_ops = Array.length v.op_keys in
  let cyc_w = Array.make (s.Frag_sched.latency + 1) 0 in
  let cyc_stamp = Array.make (s.Frag_sched.latency + 1) (-1) in
  let op_width = Array.make n_ops 1 in
  let op_bits = Array.make (n_ops * words) 0 in
  for op = 0 to n_ops - 1 do
    let w = ref 1 in
    for i = v.frag_off.(op) to v.frag_off.(op + 1) - 1 do
      let id = v.frags.(i) in
      let c = cycle_of.(id) in
      let cw = Bitnet.costly_width net ~id in
      let cw =
        if cyc_stamp.(c) = op then cyc_w.(c) + cw
        else begin
          cyc_stamp.(c) <- op;
          let o = (op * words) + (c / word_bits) in
          op_bits.(o) <- op_bits.(o) lor (1 lsl (c mod word_bits));
          cw
        end
      in
      cyc_w.(c) <- cw;
      if cw > !w then w := cw
    done;
    op_width.(op) <- !w
  done;
  (op_width, op_bits)

(* A packing: [n_fu] adders, each with its first operation's key, its
   width, its fragment count and its operations as a chain ([fu_ops] the
   newest, [op_next] the next older, -1 ending it).  [cfg_stamp] is the
   packer's per-configuration scratch, every stamp below the operation
   count, handed on to the mux count. *)
type packing = {
  n_fu : int;
  fu_label : string array;
  fu_width : int array;
  fu_nfrags : int array;
  fu_ops : int array;
  op_next : int array;
  cfg_stamp : int array;
}

(* Pack operations onto adders: two operations may share one adder when
   they are never active in the same cycle (the conventional allocator's
   view of the transformed specification); an operation chained to another
   in the same cycle necessarily has its own adder.  Widest-first greedy
   packing (ties by operation key) keeps shared widths tight; among
   cycle-compatible adders the packer prefers the one whose already-bound
   fragments read the most of the candidate's operand configurations —
   interconnect-aware binding that cuts the steering multiplexers the
   fragmented datapath otherwise pays — and among equal votes the newest
   adder.  No width tie-break is needed: operations arrive widest first,
   so every adder that exists when one is placed is already at least as
   wide as it and hosting it grows none.

   An adder's active cycles are [words] ints.  Votes of ordinary
   configurations go through the inverted configuration→adder index,
   chained in one flat array ([cfg_head.(k)] the first entry [e] of
   configuration [k], [ent.(e)] its adder and [ent.(e + 1)] the next
   entry, -1 ending the chain), so a probe touches only the adders that
   read one of them; [fu_vote.(a)] is [gen lsl 32 + votes], the count
   restarting whenever the generation (the candidate's rank) moves on.
   A hub configuration (see [hubs]) would chain nearly every adder, so
   each adder keeps the hubs it reads as bits of [fu_hubs.(a)] instead.
   An adder's votes are then its ordinary votes plus the candidate's hubs
   it reads.  The best fitting adder is the better of two: the best voted
   one, and the best among the rest, found scanning from the newest adder
   down, which stops once an adder reads every hub the candidate reads. *)
let pack v (s : Frag_sched.t) =
  let words = (s.Frag_sched.latency / word_bits) + 1 in
  let op_width, op_bits = op_cycles v s ~words in
  let n_ops = Array.length v.op_keys in
  (* Widest first, ties by key. *)
  let order = Lifetime.stable_order (fun op -> lnot op_width.(op)) v.by_key in
  let fu_label = Array.make n_ops "" and fu_width = Array.make n_ops 0 in
  let fu_nfrags = Array.make n_ops 0 and fu_ops = Array.make n_ops (-1) in
  let op_next = Array.make n_ops (-1) in
  let fu_bits = Array.make (n_ops * words) 0 in
  let fu_vote = Array.make n_ops (-1) and fu_hubs = Array.make n_ops 0 in
  let cfg_head = Array.make v.n_cfgs (-1) in
  let ent = Array.make (2 * v.n_ordinary) 0 in
  let n_ent = ref 0 in
  let cfg_stamp = Array.make v.n_cfgs (-1) in
  let max_frags = ref 0 in
  for op = 0 to n_ops - 1 do
    max_frags := Int.max !max_frags (v.frag_off.(op + 1) - v.frag_off.(op))
  done;
  let mine = Array.make (!max_frags * n_ports) 0 in
  let voted = Array.make n_ops 0 in
  let n_fu = ref 0 in
  let fits a op =
    let fa = a * words and oa = op * words in
    let w = ref 0 in
    while !w < words && fu_bits.(fa + !w) land op_bits.(oa + !w) = 0 do
      incr w
    done;
    !w = words
  in
  (* Does adder [a] already read configuration [k]? *)
  let rec reads a e = e >= 0 && (ent.(e) = a || reads a ent.(e + 1)) in
  let votes_in gen a =
    if fu_vote.(a) lsr 32 = gen then fu_vote.(a) land 0xFFFF_FFFF else 0
  in
  (* How many of the hub bits [h] are set in [hubs]. *)
  let rec hub_votes hubs = function
    | 0 -> 0
    | h ->
        (if hubs land h land -h <> 0 then 1 else 0)
        + hub_votes hubs (h land (h - 1))
  in
  Array.iteri
    (fun gen op ->
      let lo = v.frag_off.(op) and hi = v.frag_off.(op + 1) in
      (* The candidate's distinct ordinary configurations, and its hubs. *)
      let m = ref 0 and op_hubs = ref 0 in
      for j = lo * n_ports to (hi * n_ports) - 1 do
        let k = v.frag_cfg.(j) in
        let h = v.cfg_hub.(k) in
        if h >= 0 then op_hubs := !op_hubs lor (1 lsl h)
        else if cfg_stamp.(k) <> gen then begin
          cfg_stamp.(k) <- gen;
          mine.(!m) <- k;
          incr m
        end
      done;
      let m = !m and op_hubs = !op_hubs in
      let n_hubs = hub_votes op_hubs op_hubs in
      let n_voted = ref 0 in
      for i = 0 to m - 1 do
        let e = ref cfg_head.(mine.(i)) in
        while !e >= 0 do
          let a = ent.(!e) in
          let c = fu_vote.(a) in
          if c lsr 32 = gen then fu_vote.(a) <- c + 1
          else begin
            fu_vote.(a) <- (gen lsl 32) + 1;
            voted.(!n_voted) <- a;
            incr n_voted
          end;
          e := ent.(!e + 1)
        done
      done;
      (* The best unvoted fitting adder: most hubs read, newest first. *)
      let best = ref (-1) and best_votes = ref (-1) in
      let a = ref (!n_fu - 1) in
      while !a >= 0 && !best_votes < n_hubs do
        if votes_in gen !a = 0 && fits !a op then begin
          let votes = hub_votes fu_hubs.(!a) op_hubs in
          if votes > !best_votes then begin
            best := !a;
            best_votes := votes
          end
        end;
        decr a
      done;
      for j = 0 to !n_voted - 1 do
        let a = voted.(j) in
        let votes = votes_in gen a + hub_votes fu_hubs.(a) op_hubs in
        if
          (votes > !best_votes || (votes = !best_votes && a > !best))
          && fits a op
        then begin
          best := a;
          best_votes := votes
        end
      done;
      let a =
        if !best >= 0 then !best
        else begin
          let a = !n_fu in
          incr n_fu;
          fu_label.(a) <- v.op_keys.(op);
          a
        end
      in
      if op_width.(op) > fu_width.(a) then fu_width.(a) <- op_width.(op);
      fu_nfrags.(a) <- fu_nfrags.(a) + hi - lo;
      op_next.(op) <- fu_ops.(a);
      fu_ops.(a) <- op;
      fu_hubs.(a) <- fu_hubs.(a) lor op_hubs;
      for w = 0 to words - 1 do
        let fw = (a * words) + w in
        fu_bits.(fw) <- fu_bits.(fw) lor op_bits.((op * words) + w)
      done;
      (* Record the ordinary configurations new to the adder.  Without an
         ordinary vote it reads none of them yet. *)
      let voted_for = votes_in gen a > 0 in
      for i = 0 to m - 1 do
        let k = mine.(i) in
        if not (voted_for && reads a cfg_head.(k)) then begin
          let e = !n_ent in
          n_ent := e + 2;
          ent.(e) <- a;
          ent.(e + 1) <- cfg_head.(k);
          cfg_head.(k) <- e
        end
      done)
    order;
  { n_fu = !n_fu; fu_label; fu_width; fu_nfrags; fu_ops; op_next; cfg_stamp }

let fu_record p a =
  {
    Datapath.fu_label = p.fu_label.(a);
    fu_class = Datapath.Adder;
    fu_width = p.fu_width.(a);
    fu_width2 = p.fu_width.(a);
  }

(* Operand-steering muxes of the dedicated adders: per adder with more
   than one fragment, a carry-in mux when the carry source changes across
   its fragments, then one per data port whose fragments read distinct
   source slices.  Distinct configurations are counted with a stamp per
   (adder, port), numbered past the packer's. *)
let fu_muxes v p =
  let stamp = p.cfg_stamp in
  let gen = ref (Array.length v.op_keys) in
  let distinct a port =
    incr gen;
    let d = ref 0 and op = ref p.fu_ops.(a) in
    while !op >= 0 do
      for i = v.frag_off.(!op) to v.frag_off.(!op + 1) - 1 do
        let k = v.frag_cfg.((i * n_ports) + port) in
        if stamp.(k) <> !gen then begin
          stamp.(k) <- !gen;
          incr d
        end
      done;
      op := p.op_next.(!op)
    done;
    !d
  in
  let acc = ref [] in
  for a = p.n_fu - 1 downto 0 do
    if p.fu_nfrags.(a) > 1 then begin
      let mux port width =
        let d = distinct a port in
        if d > 1 then
          acc := { Datapath.mux_inputs = d; mux_width = width } :: !acc
      in
      mux 1 p.fu_width.(a);
      mux 0 p.fu_width.(a);
      mux 2 1
    end
  done;
  !acc

(** The packed adders with the fragment nodes bound to each — the physical
    sharing structure the netlist elaborator realizes.  An adder's nodes
    are its operations' fragments, newest operation first. *)
let dedicated_fus ?view (s : Frag_sched.t) =
  let v = view_for ?view s in
  let p = pack v s in
  let g = v.v_graph in
  let rec nodes op =
    if op < 0 then []
    else begin
      let acc = ref (nodes p.op_next.(op)) in
      for i = v.frag_off.(op + 1) - 1 downto v.frag_off.(op) do
        acc := Graph.node g v.frags.(i) :: !acc
      done;
      !acc
    end
  in
  List.init p.n_fu (fun a -> (fu_record p a, nodes p.fu_ops.(a)))

(* Bit-granular storage: last cycle each net bit is read in, looking
   through glue (wiring adds no cycle).  Reads the net's CSR arrays
   directly; [Input]/[Const] bits are not in the net and never stored.
   A source below the consumer node's [bit_base] is another node's bit;
   the rest is the consumer's own carry chain, never stored. *)
let last_use (s : Frag_sched.t) =
  let net = s.Frag_sched.net in
  let g = Frag_sched.graph s in
  let base = net.Bitnet.bit_base and off = net.Bitnet.dep_off in
  let deps = net.Bitnet.deps in
  let lu = Array.make (Bitnet.total_bits net) 0 in
  let record id b cycle =
    let own = base.(id) in
    for k = off.(b) to off.(b + 1) - 1 do
      let src = deps.(k) in
      if src < own && cycle > lu.(src) then lu.(src) <- cycle
    done
  in
  (* Direct uses by additions, at the addition's cycle. *)
  let n_nodes = Graph.node_count g in
  for id = 0 to n_nodes - 1 do
    if (Graph.node g id).kind = Add then begin
      let cycle = s.Frag_sched.cycle_of.(id) in
      for b = base.(id) to base.(id + 1) - 1 do
        record id b cycle
      done
    end
  done;
  (* Glue transparency: a use of a glue bit is a use of the bits it
     forwards, at the same cycle. *)
  for id = n_nodes - 1 downto 0 do
    if (Graph.node g id).kind <> Add then
      for b = base.(id) to base.(id + 1) - 1 do
        let u = lu.(b) in
        if u > 0 then record id b u
      done
  done;
  lu

(* Per-bit storage decisions: [f id lo width from_ to_] for every maximal
   run of consecutive result bits of an addition with one storage
   interval.  A bit is stored from the cycle after it settles to its last
   read, and never when it is only read in its own cycle.  Runs come in
   descending (node, lowest bit) order, so consing them up gives the
   ascending list. *)
let iter_runs_rev (s : Frag_sched.t) lu f =
  let g = Frag_sched.graph s in
  let base = s.Frag_sched.net.Bitnet.bit_base in
  let bit_cycle = s.Frag_sched.bit_cycle in
  for id = Graph.node_count g - 1 downto 0 do
    if (Graph.node g id).kind = Add then begin
      let b0 = base.(id) and width = base.(id + 1) - base.(id) in
      (* Bits [pos + 1, hi) share the interval [cur_from, cur_to];
         [cur_from = min_int] marks bits that never cross a cycle. *)
      let hi = ref width and cur_from = ref min_int and cur_to = ref 0 in
      for pos = width - 1 downto 0 do
        let def = bit_cycle.(b0 + pos) and u = lu.(b0 + pos) in
        let from_ = if u > def then def + 1 else min_int in
        let to_ = if u > def then u else 0 in
        if pos < width - 1 && (from_ <> !cur_from || to_ <> !cur_to) then begin
          if !cur_from <> min_int then
            f id (pos + 1) (!hi - pos - 1) !cur_from !cur_to;
          hi := pos + 1
        end;
        cur_from := from_;
        cur_to := to_
      done;
      if !cur_from <> min_int then f id 0 !hi !cur_from !cur_to
    end
  done

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
  let runs = ref [] in
  iter_runs_rev s (last_use s) (fun sr_node sr_lo sr_width sr_from sr_to ->
      runs := { sr_node; sr_lo; sr_width; sr_from; sr_to } :: !runs);
  !runs

(* ["key[lo+width]"] in one allocation. *)
let run_label key lo width =
  let kl = String.length key in
  let b =
    Bytes.create (kl + Decimal.digits lo + Decimal.digits width + 3)
  in
  Bytes.blit_string key 0 b 0 kl;
  Bytes.set b kl '[';
  let pos = Decimal.put_int b (kl + 1) lo in
  Bytes.set b pos '+';
  let pos = Decimal.put_int b (pos + 1) width in
  Bytes.set b pos ']';
  Bytes.unsafe_to_string b

(** Left-edge-packed registers over the stored runs. *)
let registers ?view (s : Frag_sched.t) =
  let v = view_for ?view s in
  let lu = last_use s in
  (* The runs into arrays sized by their count, in ascending order. *)
  let n = ref 0 in
  iter_runs_rev s lu (fun _ _ _ _ _ -> incr n);
  let n = !n in
  let node = Array.make n 0 and lo = Array.make n 0 in
  let width = Array.make n 0 and from = Array.make n 0 in
  let to_ = Array.make n 0 in
  let k = ref n in
  iter_runs_rev s lu (fun id l w f t ->
      decr k;
      node.(!k) <- id;
      lo.(!k) <- l;
      width.(!k) <- w;
      from.(!k) <- f;
      to_.(!k) <- t);
  Lifetime.left_edge_flat ~from ~to_ ~width (fun i ->
      {
        Lifetime.iv_label =
          run_label v.op_keys.(v.op_of.(node.(i))) lo.(i) width.(i);
        iv_width = width.(i);
        iv_from = from.(i);
        iv_to = to_.(i);
      })

(** Build the optimized datapath summary from a fragment schedule. *)
let bind ?view (s : Frag_sched.t) =
  let v = view_for ?view s in
  let fus, muxes =
    span "bind.pack" (fun () ->
        let p = pack v s in
        (List.init p.n_fu (fu_record p), fu_muxes v p))
  in
  let registers = span "bind.storage" (fun () -> registers ~view:v s) in
  {
    Datapath.name = Graph.name v.v_graph ^ "_optimized";
    latency = s.Frag_sched.latency;
    chain_delta = Frag_sched.used_delta s;
    mux_levels = (if muxes = [] then 0 else 1);
    fus;
    registers;
    muxes;
    ctrl_states = s.Frag_sched.latency;
    ctrl_signals = Datapath.count_signals ~muxes ~registers;
  }
