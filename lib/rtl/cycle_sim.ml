(** Cycle-accurate simulation of scheduled designs.

    {!run_fragment} executes a fragment schedule cycle by cycle the way the
    synthesized RTL would: each addition computes in its assigned cycle
    with a real carry ripple, values read from earlier cycles must have
    been captured by a register that {!Hls_alloc.Bind_frag} actually
    allocated, and values read in the same cycle come straight off the
    combinational chain.  Matching the behavioural simulation under this
    discipline validates the schedule *and* the storage allocation
    end-to-end: a fragment placed in the wrong cycle, a missing register or
    a broken carry link all surface as simulation mismatches or read
    violations.

    {!run_op_schedule} is the operation-atomic analogue for conventional
    schedules. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module Frag_sched = Hls_sched.Frag_sched
module Bind_frag = Hls_alloc.Bind_frag
module Bv = Hls_bitvec

exception Violation of string

let violation fmt = Format.kasprintf (fun m -> raise (Violation m)) fmt

type frag_run = {
  fr_outputs : (string * Bv.t) list;
  fr_cross_cycle_reads : int;  (** reads satisfied by registers *)
  fr_chained_reads : int;  (** reads satisfied combinationally in-cycle *)
}

let run_fragment (s : Frag_sched.t) ~inputs =
  let g = Frag_sched.graph s in
  (* Stored runs indexed by node, so a cross-cycle read scans only the
     runs of the node it reads. *)
  let runs_of = Array.make (Graph.node_count g) [] in
  List.iter
    (fun (r : Bind_frag.stored_run) ->
      runs_of.(r.Bind_frag.sr_node) <- r :: runs_of.(r.Bind_frag.sr_node))
    (Bind_frag.stored_runs s);
  let bit_base = s.Frag_sched.net.Hls_timing.Bitnet.bit_base in
  let values = Array.init (Graph.node_count g) (fun id ->
      Array.make (Graph.node g id).width false)
  in
  let cross_reads = ref 0 and chained_reads = ref 0 in
  let input_value name =
    match List.assoc_opt name inputs with
    | Some v -> v
    | None -> violation "missing input %s" name
  in
  (* Value of bit [i] of [src] as read by an addition executing in
     [cycle]; resolves through glue (pure wiring), enforcing that any
     addition bit it reaches was computed in time and, for earlier cycles,
     is actually held in an allocated register. *)
  let rec resolve ?(check = true) ~cycle (src, i) =
    match src with
    | Input name -> Bv.get (input_value name) i
    | Const bv -> Bv.get bv i
    | Node id -> (
        let n = Graph.node g id in
        match n.kind with
        | Add ->
            let produced = s.Frag_sched.bit_cycle.(bit_base.(id) + i) in
            if check then begin
              if produced > cycle then
                violation "bit %d of %s read in cycle %d before cycle %d" i
                  n.label cycle produced;
              if produced < cycle then begin
                incr cross_reads;
                let stored =
                  List.exists
                    (fun (r : Bind_frag.stored_run) ->
                      i >= r.Bind_frag.sr_lo
                      && i < r.Bind_frag.sr_lo + r.Bind_frag.sr_width
                      && r.Bind_frag.sr_to >= cycle)
                    runs_of.(id)
                in
                if not stored then
                  violation
                    "bit %d of %s read in cycle %d but not registered past \
                     cycle %d"
                    i n.label cycle produced
              end
              else incr chained_reads
            end;
            values.(id).(i)
        | _ -> glue_bit ~check ~cycle n i)
  and glue_bit ?(check = true) ~cycle (n : node) i =
    let op k = List.nth n.operands k in
    let operand_bit (o : operand) pos =
      if pos < Operand.width o then
        Some (resolve ~check ~cycle (o.src, o.lo + pos))
      else
        match o.ext with
        | Zext -> None
        | Sext -> Some (resolve ~check ~cycle (o.src, o.hi))
    in
    let bit_or_false o pos = Option.value (operand_bit o pos) ~default:false in
    match n.kind with
    | Not -> not (bit_or_false (op 0) i)
    | Wire -> bit_or_false (op 0) i
    | And -> bit_or_false (op 0) i && bit_or_false (op 1) i
    | Or -> bit_or_false (op 0) i || bit_or_false (op 1) i
    | Xor -> bit_or_false (op 0) i <> bit_or_false (op 1) i
    | Gate -> bit_or_false (op 0) i && bit_or_false (op 1) 0
    | Mux ->
        if bit_or_false (op 0) 0 then bit_or_false (op 1) i
        else bit_or_false (op 2) i
    | Concat ->
        let rec find offset = function
          | [] -> false
          | o :: tl ->
              let w = Operand.width o in
              if i < offset + w then bit_or_false o (i - offset)
              else find (offset + w) tl
        in
        find 0 n.operands
    | Reduce_or ->
        let o = op 0 in
        List.exists
          (fun pos -> bit_or_false o pos)
          (Hls_util.List_ext.range 0 (Operand.width o))
    | k -> violation "unexpected %s in a scheduled graph" (kind_to_string k)
  in
  (* Execute each addition in its cycle with an explicit carry ripple. *)
  for cycle = 1 to s.Frag_sched.latency do
    Graph.iter_nodes
      (fun (n : node) ->
        if n.kind = Add && s.Frag_sched.cycle_of.(n.id) = cycle then begin
          let a, b, cin =
            match n.operands with
            | [ a; b ] -> (a, b, None)
            | [ a; b; c ] -> (a, b, Some c)
            | _ -> violation "malformed addition %s" n.label
          in
          let operand_bit (o : operand) pos =
            if pos < Operand.width o then
              resolve ~cycle (o.src, o.lo + pos)
            else
              match o.ext with
              | Zext -> false
              | Sext -> resolve ~cycle (o.src, o.hi)
          in
          let carry =
            ref
              (match cin with
              | None -> false
              | Some c -> resolve ~cycle (c.src, c.lo))
          in
          for pos = 0 to n.width - 1 do
            let x = operand_bit a pos and y = operand_bit b pos in
            values.(n.id).(pos) <- x <> y <> !carry;
            carry := (x && y) || (x && !carry) || (y && !carry)
          done
        end)
      g
  done;
  let fr_outputs =
    List.map
      (fun (name, (o : operand)) ->
        ( name,
          Bv.init (Operand.width o) (fun k ->
              (* Output ports latch bits as they are produced; no register
                 check (the paper excludes port registers). *)
              resolve ~check:false ~cycle:s.Frag_sched.latency
                (o.src, o.lo + k)) ))
      (Frag_sched.graph s).Graph.outputs
  in
  {
    fr_outputs;
    fr_cross_cycle_reads = !cross_reads;
    fr_chained_reads = !chained_reads;
  }

type op_run = { or_outputs : (string * Bv.t) list }

(** Operation-atomic cycle simulation of a conventional schedule: every
    node evaluates in its assigned cycle, reading only values from earlier
    or equal cycles. *)
let run_op_schedule (t : Hls_sched.List_sched.t) ~inputs =
  let g = t.Hls_sched.List_sched.graph in
  let values = Array.make (Graph.node_count g) (Bv.zero 1) in
  let computed = Array.make (Graph.node_count g) false in
  for cycle = 1 to t.Hls_sched.List_sched.latency do
    Graph.iter_nodes
      (fun (n : node) ->
        if t.Hls_sched.List_sched.cycle_of.(n.id) = cycle then begin
          List.iter
            (fun (o : operand) ->
              match o.src with
              | Node p ->
                  if not computed.(p) then
                    violation "node %d reads node %d before it executes" n.id
                      p;
                  if t.Hls_sched.List_sched.cycle_of.(p) > cycle then
                    violation "node %d reads a later cycle" n.id
              | Input _ | Const _ -> ())
            n.operands;
          values.(n.id) <- Hls_sim.eval_node g values ~inputs n;
          computed.(n.id) <- true
        end)
      g
  done;
  Graph.iter_nodes
    (fun n ->
      if not computed.(n.id) then
        violation "node %d never executed" n.Hls_dfg.Types.id)
    g;
  let or_outputs =
    List.map
      (fun (name, (o : operand)) ->
        let v =
          match o.src with
          | Node id -> values.(id)
          | Input name -> (
              match List.assoc_opt name inputs with
              | Some v -> v
              | None -> violation "missing input %s" name)
          | Const bv -> bv
        in
        (name, Bv.slice v ~hi:o.hi ~lo:o.lo))
      g.Graph.outputs
  in
  { or_outputs }
