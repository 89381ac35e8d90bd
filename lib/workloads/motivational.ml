(** The paper's two worked examples.

    - {!chain3}: Fig. 1a — three data-dependent 16-bit additions
      (C = A + B; E = C + D; G = E + F).  Its critical path is 18 chained
      1-bit additions (Fig. 1e) and it drives the Table I comparison.
    - {!fig3}: the 8-operation mixed-width DFG of Fig. 3a: four 6-bit
      additions (B, C, D, E with B→C→E and D→E), one 5-bit addition (A) and
      three 8-bit additions (F, G, H with F→H and G→H).  Its critical path
      is 9 δ, so λ = 3 gives a 3 δ cycle, reproducing the fragment
      mobilities of Figs. 3c–f. *)

module B = Hls_dfg.Builder

(** Fig. 1a, parameterized by operand width (16 in the paper) and by the
    number of chained additions (3 in the paper) for the Fig. 4-style
    latency sweeps. *)
let chain ?(width = 16) ?(ops = 3) () =
  if ops < 1 then invalid_arg "Motivational.chain: ops must be >= 1";
  let b = B.create ~name:(Printf.sprintf "chain%d_w%d" ops width) in
  let first = B.input b "A" ~width in
  let second = B.input b "B" ~width in
  (* Paper names: C = A + B; E = C + D; G = E + F; synthetic names beyond. *)
  let extra_names = [ "D"; "F" ] and labels = [ "E"; "G" ] in
  let acc = ref (B.add b ~width ~label:"C" first second) in
  for i = 2 to ops do
    let label =
      try List.nth labels (i - 2) with _ -> Printf.sprintf "v%d" i
    in
    let port =
      try List.nth extra_names (i - 2) with _ -> Printf.sprintf "I%d" i
    in
    let extra = B.input b port ~width in
    acc := B.add b ~width ~label !acc extra
  done;
  B.output b "G" !acc;
  B.finish b

let chain3 () = chain ~width:16 ~ops:3 ()

(** Fig. 3a. Output ports expose E, H, and the standalone A so no operation
    is dead. *)
let fig3 () =
  let b = B.create ~name:"fig3" in
  let i = B.input b in
  let in1 = i "i1" ~width:6
  and in2 = i "i2" ~width:6
  and in3 = i "i3" ~width:6
  and in4 = i "i4" ~width:6
  and in5 = i "i5" ~width:6
  and in6 = i "i6" ~width:5
  and in7 = i "i7" ~width:5
  and in8 = i "i8" ~width:8
  and in9 = i "i9" ~width:8
  and in10 = i "i10" ~width:8
  and in11 = i "i11" ~width:8 in
  let op_a = B.add b ~width:5 ~label:"A" in6 in7 in
  let op_b = B.add b ~width:6 ~label:"B" in1 in2 in
  let op_c = B.add b ~width:6 ~label:"C" op_b in3 in
  let op_d = B.add b ~width:6 ~label:"D" in4 in5 in
  let op_e = B.add b ~width:6 ~label:"E" op_c op_d in
  let op_f = B.add b ~width:8 ~label:"F" in8 in9 in
  let op_g = B.add b ~width:8 ~label:"G" in10 in11 in
  let op_h = B.add b ~width:8 ~label:"H" op_f op_g in
  B.output b "outA" op_a;
  B.output b "outE" op_e;
  B.output b "outH" op_h;
  B.finish b
