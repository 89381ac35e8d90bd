(** The pre-rewrite equivalence checker, kept verbatim as an oracle.

    This is [Hls_check] as it shipped before the bit-sliced rewrite: every
    vector runs through {!Hls_sim.outputs} on its own, one [Hls_bitvec.t]
    per value, and the outputs are compared with [List.assoc].  It tries
    the same vectors in the same order as [Hls_check]: exhaustive index
    order, then the corner vectors in order, then
    {!Hls_sim.random_inputs} draws.

    Production must reach exactly the same verdicts: the test suite checks
    [Hls_check.exhaustive], [corners] and [equivalent] against this module
    with structural equality, and the timing bench fails its [--assert]
    gate when [Hls_check.equivalent] is slower than [equivalent] here.
    The verdict type is [Hls_check]'s, so the two compare directly. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Bv = Hls_bitvec

type verdict = Hls_check.verdict =
  | Proved
  | Passed of int
  | Failed of {
      input : (string * Bv.t) list;
      port : string;
      left : Bv.t;
      right : Bv.t;
    }

let input_bits g =
  Hls_util.List_ext.sum_by (fun p -> p.port_width) g.Graph.inputs

let common_outputs a b =
  List.filter_map
    (fun (name, _) ->
      if List.mem_assoc name b.Graph.outputs then Some name else None)
    a.Graph.outputs

(* Compare on one vector; None = agree. *)
let compare_on a b outputs inputs =
  let oa = Hls_sim.outputs a ~inputs and ob = Hls_sim.outputs b ~inputs in
  List.fold_left
    (fun acc port ->
      match acc with
      | Some _ -> acc
      | None ->
          let left = List.assoc port oa and right = List.assoc port ob in
          if Bv.equal left right then None
          else Some (Failed { input = inputs; port; left; right }))
    None outputs

(* Decode a global index into one valuation of all ports. *)
let vector_of_index g index =
  let _, inputs =
    List.fold_left
      (fun (index, acc) p ->
        let w = p.port_width in
        let v = Bv.init w (fun i -> (index lsr i) land 1 = 1) in
        (index lsr w, (p.port_name, v) :: acc))
      (index, []) g.Graph.inputs
  in
  List.rev inputs

let exhaustive ?(max_bits = 20) a b =
  let bits = input_bits a in
  if bits > max_bits then
    invalid_arg
      (Printf.sprintf "Hls_check.exhaustive: %d input bits exceed budget %d"
         bits max_bits);
  let outputs = common_outputs a b in
  if outputs = [] then invalid_arg "Hls_check.exhaustive: no common outputs";
  let total = 1 lsl bits in
  let rec go i =
    if i >= total then Proved
    else
      match compare_on a b outputs (vector_of_index a i) with
      | Some failure -> failure
      | None -> go (i + 1)
  in
  go 0

let corner_vectors g =
  let per_port (p : port) =
    let w = p.port_width in
    let base =
      [ Bv.zero w; Bv.ones w; Bv.of_int ~width:w 1 ]
      @ (if w > 1 then
           [
             (* sign corners *)
             Bv.init w (fun i -> i = w - 1);
             Bv.init w (fun i -> i <> w - 1);
           ]
         else [])
    in
    Hls_util.List_ext.dedup ~eq:Bv.equal base
  in
  (* All ports at a common corner, plus walking a single port through its
     corners with the others at zero — linear, not cross-product. *)
  let ports = g.Graph.inputs in
  let all_at pick = List.map (fun p -> (p.port_name, pick p)) ports in
  let uniform =
    [
      all_at (fun p -> Bv.zero p.port_width);
      all_at (fun p -> Bv.ones p.port_width);
      all_at (fun p -> Bv.init p.port_width (fun i -> i = p.port_width - 1));
    ]
  in
  let walking =
    List.concat_map
      (fun (p : port) ->
        List.map
          (fun v ->
            List.map
              (fun (q : port) ->
                ( q.port_name,
                  if q.port_name = p.port_name then v else Bv.zero q.port_width
                ))
              ports)
          (per_port p))
      ports
  in
  uniform @ walking

let corners a b =
  let outputs = common_outputs a b in
  if outputs = [] then invalid_arg "Hls_check.corners: no common outputs";
  let vectors = corner_vectors a in
  let rec go n = function
    | [] -> Passed n
    | v :: rest -> (
        match compare_on a b outputs v with
        | Some failure -> failure
        | None -> go (n + 1) rest)
  in
  go 0 vectors

let equivalent ?(exhaustive_budget = 16) ?(samples = 200) ?(seed = 0) a b =
  if input_bits a <= exhaustive_budget then
    exhaustive ~max_bits:exhaustive_budget a b
  else
    match corners a b with
    | Failed _ as f -> f
    | Proved -> Proved
    | Passed n_corners -> (
        let outputs = common_outputs a b in
        let prng = Hls_util.Prng.create ~seed in
        let rec go i =
          if i >= samples then Passed (n_corners + samples)
          else
            let inputs = Hls_sim.random_inputs a prng in
            match compare_on a b outputs inputs with
            | Some failure -> failure
            | None -> go (i + 1)
        in
        go 0)
