(** RTL VHDL emission for a scheduled, bound design.

    Emits the classic two-process FSM-plus-datapath style: a state register
    cycling through the λ schedule states, a clocked process capturing the
    stored bit-runs at the end of their production cycles, and a
    combinational process computing each cycle's additions from registered
    values and same-cycle chains.  The structure mirrors exactly what the
    area model of {!Hls_alloc} counts: one (shared) adder expression per
    activation, one register per stored run, steering by state. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Operand = Hls_dfg.Operand
module Frag_sched = Hls_sched.Frag_sched
module Bind_frag = Hls_alloc.Bind_frag
module Names = Hls_speclang.Names

let emit (s : Frag_sched.t) =
  let g = Frag_sched.graph s in
  let names = Names.assign g in
  let runs = Bind_frag.stored_runs s in
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let entity = Names.sanitize (Graph.name g) ^ "_rtl" in
  add "library ieee;\n";
  add "use ieee.std_logic_1164.all;\n";
  add "use ieee.numeric_std.all;\n\n";
  add "entity %s is\n  port (\n" entity;
  add "    clk   : in std_logic;\n";
  add "    reset : in std_logic;\n";
  add "    start : in std_logic;\n";
  add "    done  : out std_logic;\n";
  List.iter
    (fun p ->
      add "    %s : in std_logic_vector(%d downto 0);\n" p.port_name
        (p.port_width - 1))
    g.Graph.inputs;
  List.iteri
    (fun i (name, o) ->
      add "    %s : out std_logic_vector(%d downto 0)%s\n" name
        (Operand.width o - 1)
        (if i = List.length g.Graph.outputs - 1 then "" else ";"))
    g.Graph.outputs;
  add "  );\nend %s;\n\n" entity;
  add "architecture rtl of %s is\n" entity;
  (* One state per schedule cycle. *)
  add "  type state_t is (s_idle%s);\n"
    (String.concat ""
       (List.map
          (fun c -> Printf.sprintf ", s_c%d" c)
          (Hls_util.List_ext.range 1 (s.Frag_sched.latency + 1))));
  add "  signal state : state_t := s_idle;\n";
  (* Registers for every stored run. *)
  List.iteri
    (fun k (r : Bind_frag.stored_run) ->
      add "  signal r%d_%s : std_logic_vector(%d downto 0); -- bits %d+%d, cycles %d..%d\n"
        k names.(r.Bind_frag.sr_node)
        (r.Bind_frag.sr_width - 1)
        r.Bind_frag.sr_lo r.Bind_frag.sr_width r.Bind_frag.sr_from
        r.Bind_frag.sr_to)
    runs;
  (* Combinational value of every node in its active cycle. *)
  Graph.iter_nodes
    (fun n ->
      add "  signal w_%s : std_logic_vector(%d downto 0);\n" names.(n.id)
        (n.width - 1))
    g;
  add "begin\n\n";
  (* FSM. *)
  add "  fsm : process (clk)\n  begin\n";
  add "    if rising_edge(clk) then\n";
  add "      if reset = '1' then\n        state <= s_idle;\n";
  add "      else\n        case state is\n";
  add "          when s_idle => if start = '1' then state <= s_c1; end if;\n";
  List.iter
    (fun c ->
      if c < s.Frag_sched.latency then
        add "          when s_c%d => state <= s_c%d;\n" c (c + 1)
      else add "          when s_c%d => state <= s_idle;\n" c)
    (Hls_util.List_ext.range 1 (s.Frag_sched.latency + 1));
  add "        end case;\n      end if;\n    end if;\n";
  add "  end process fsm;\n\n";
  add "  done <= '1' when state = s_c%d else '0';\n\n" s.Frag_sched.latency;
  (* Register captures, one clocked process per stored run. *)
  List.iteri
    (fun k (r : Bind_frag.stored_run) ->
      let producer = names.(r.Bind_frag.sr_node) in
      add
        "  cap%d : process (clk)\n  begin\n    if rising_edge(clk) then\n\
        \      if state = s_c%d then r%d_%s <= w_%s(%d downto %d); end if;\n\
        \    end if;\n  end process cap%d;\n\n"
        k
        (r.Bind_frag.sr_from - 1)
        k producer producer
        (r.Bind_frag.sr_lo + r.Bind_frag.sr_width - 1)
        r.Bind_frag.sr_lo k)
    runs;
  (* Datapath: every addition guarded by its state; glue as plain wiring.
     Cross-cycle operand bits are routed from their capture registers. *)
  let reg_for id bit ~cycle =
    let rec find k = function
      | [] -> None
      | (r : Bind_frag.stored_run) :: rest ->
          if
            r.Bind_frag.sr_node = id
            && bit >= r.Bind_frag.sr_lo
            && bit < r.Bind_frag.sr_lo + r.Bind_frag.sr_width
            && r.Bind_frag.sr_from <= cycle
            && r.Bind_frag.sr_to >= cycle
          then Some (k, r)
          else find (k + 1) rest
    in
    find 0 runs
  in
  let bit_src ~cycle (src, i) =
    match src with
    | Input name -> Printf.sprintf "%s(%d)" name i
    | Const bv -> if Hls_bitvec.get bv i then "'1'" else "'0'"
    | Node id -> (
        let produced = s.Frag_sched.bit_time.(id).(i).Frag_sched.bt_cycle in
        if produced < cycle then
          match reg_for id i ~cycle with
          | Some (k, r) ->
              Printf.sprintf "r%d_%s(%d)" k names.(id) (i - r.Bind_frag.sr_lo)
          | None -> Printf.sprintf "w_%s(%d)" names.(id) i
        else Printf.sprintf "w_%s(%d)" names.(id) i)
  in
  Graph.iter_nodes
    (fun n ->
      let name = names.(n.id) in
      match n.kind with
      | Add ->
          let cycle = s.Frag_sched.cycle_of.(n.id) in
          let operand_bits (o : operand) =
            List.map
              (fun pos ->
                if pos < Operand.width o then
                  bit_src ~cycle (o.src, o.lo + pos)
                else
                  match o.ext with
                  | Zext -> "'0'"
                  | Sext -> bit_src ~cycle (o.src, o.hi))
              (Hls_util.List_ext.range 0 n.width)
          in
          let vec bits =
            (* MSB first in VHDL aggregates. *)
            String.concat " & " (List.rev bits)
          in
          let a, b, cin =
            match n.operands with
            | [ a; b ] -> (a, b, "'0'")
            | [ a; b; c ] -> (a, b, bit_src ~cycle (c.src, c.lo))
            | _ -> assert false
          in
          add
            "  -- %s executes in cycle %d\n\
            \  w_%s <= std_logic_vector(unsigned'(%s) + unsigned'(%s) + \
             unsigned'(\"\" & %s));\n\n"
            n.label cycle name
            (vec (operand_bits a))
            (vec (operand_bits b))
            cin
      | _ ->
          (* Glue: emit per-bit wiring using each bit's own source cycle. *)
          let bits =
            List.map
              (fun pos ->
                let cycle =
                  s.Frag_sched.bit_time.(n.id).(pos).Frag_sched.bt_cycle
                in
                let cycle = max 1 cycle in
                let _, deps = Hls_timing.Bitdep.bit_deps g n pos in
                match (n.kind, deps) with
                | Wire, [ Hls_timing.Bitdep.Bit (src, i) ]
                | Concat, [ Hls_timing.Bitdep.Bit (src, i) ] ->
                    bit_src ~cycle (src, i)
                | Wire, [] | Concat, [] -> "'0'"
                | _ ->
                    (* Other glue shapes do not appear in scheduled
                       transformed graphs (they are kernel-form inputs). *)
                    "'0'")
              (Hls_util.List_ext.range 0 n.width)
          in
          add "  w_%s <= %s;\n" name (String.concat " & " (List.rev bits)))
    g;
  add "\n";
  List.iter
    (fun (name, (o : operand)) ->
      let src =
        match o.src with
        | Node id ->
            if o.lo = 0 && o.hi = (Graph.node g id).width - 1 then
              Printf.sprintf "w_%s" names.(id)
            else Printf.sprintf "w_%s(%d downto %d)" names.(id) o.hi o.lo
        | Input n -> n
        | Const bv -> Printf.sprintf "\"%s\"" (Hls_bitvec.to_string bv)
      in
      add "  %s <= %s;\n" name src)
    g.Graph.outputs;
  add "\nend rtl;\n";
  Buffer.contents buf
