open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Bv = Hls_bitvec

type verdict =
  | Proved
  | Passed of int
  | Failed of {
      input : (string * Bv.t) list;
      port : string;
      left : Bv.t;
      right : Bv.t;
    }

let pp_verdict ppf = function
  | Proved -> Format.fprintf ppf "proved (exhaustive)"
  | Passed n -> Format.fprintf ppf "passed %d vectors" n
  | Failed { input; port; left; right } ->
      Format.fprintf ppf "FAILED on %s: %a vs %a under" port Bv.pp left Bv.pp
        right;
      List.iter (fun (n, v) -> Format.fprintf ppf " %s=%a" n Bv.pp v) input

let ok = function Proved | Passed _ -> true | Failed _ -> false

let input_bits g =
  Hls_util.List_ext.sum_by (fun p -> p.port_width) g.Graph.inputs

(* [1 lsl bits] vectors must stay a positive int. *)
let max_exhaustive_bits = Sys.int_size - 2

let check_budget who budget =
  if budget > max_exhaustive_bits then
    invalid_arg
      (Printf.sprintf "%s: budget %d exceeds %d input bits" who budget
         max_exhaustive_bits)

(* Two graphs made ready for batches: [a]'s input ports are the input
   slots, and [outs] pairs each common output (in [a]'s order) with its
   index among [a]'s and [b]'s outputs. *)
type pair = {
  ports : port array;
  la : Lanes.t;
  lb : Lanes.t;
  outs : (string * int * int) array;
}

let index_of name outputs =
  let rec go i = function
    | [] -> None
    | (n, _) :: rest -> if n = name then Some i else go (i + 1) rest
  in
  go 0 outputs

let prepare who a b =
  let outs =
    List.filter_map
      (fun (name, _) ->
        Option.map
          (fun ib -> (name, Option.get (index_of name a.Graph.outputs), ib))
          (index_of name b.Graph.outputs))
      a.Graph.outputs
  in
  if outs = [] then invalid_arg (who ^ ": no common outputs");
  let ports = Array.of_list a.Graph.inputs in
  let slots = Hashtbl.create (Array.length ports) in
  Array.iteri
    (fun k p ->
      if not (Hashtbl.mem slots p.port_name) then
        Hashtbl.add slots p.port_name (k, p.port_width))
    ports;
  let slot = Hashtbl.find_opt slots in
  let la = Lanes.prepare a ~slot in
  { ports; la; lb = Lanes.prepare b ~slot; outs = Array.of_list outs }

(* Compare one batch of [n] vectors; the failure on the lowest failing
   lane, reported on the first common output that differs there. *)
let compare_batch pr inputs n =
  let oa = Lanes.run pr.la inputs and ob = Lanes.run pr.lb inputs in
  let live = Lanes.mask n in
  let diffs =
    Array.map (fun (_, ia, ib) -> Lanes.differ ~live oa.(ia) ob.(ib)) pr.outs
  in
  let any = Array.fold_left ( lor ) 0 diffs in
  if any = 0 then None
  else
    let rec lowest l = if (any lsr l) land 1 = 1 then l else lowest (l + 1) in
    let l = lowest 0 in
    let rec first k =
      if (diffs.(k) lsr l) land 1 = 1 then pr.outs.(k) else first (k + 1)
    in
    let port, ia, ib = first 0 in
    Some
      (Failed
         {
           input =
             Array.to_list
               (Array.mapi
                  (fun s p -> (p.port_name, Lanes.lane_of_words inputs.(s) l))
                  pr.ports);
           port;
           left = Lanes.lane oa.(ia) l;
           right = Lanes.lane ob.(ib) l;
         })

(* Check vectors [0, total) in batches of [Lanes.width]: [fill inputs ~base
   ~n] writes vectors [base .. base + n - 1] into lanes [0 .. n - 1]. *)
let check_vectors pr ~total ~fill =
  let rec go base =
    if base >= total then None
    else
      let n = min Lanes.width (total - base) in
      let inputs = Array.map (fun p -> Array.make p.port_width 0) pr.ports in
      fill inputs ~base ~n;
      Hls_telemetry.count ~n "check.vectors";
      match compare_batch pr inputs n with
      | Some _ as failure -> failure
      | None -> go (base + n)
  in
  go 0

let set_lane word i l = word.(i) <- word.(i) lor (1 lsl l)

(* Vector [index] assigns the ports [index]'s bits, first port lowest. *)
let fill_index inputs ~base ~n =
  for l = 0 to n - 1 do
    let index = ref (base + l) in
    Array.iter
      (fun w ->
        for i = 0 to Array.length w - 1 do
          if (!index lsr i) land 1 = 1 then set_lane w i l
        done;
        index := !index lsr Array.length w)
      inputs
  done

let exhaustive_pair pr bits =
  match check_vectors pr ~total:(1 lsl bits) ~fill:fill_index with
  | Some failure -> failure
  | None -> Proved

let exhaustive ?(max_bits = 20) a b =
  check_budget "Hls_check.exhaustive" max_bits;
  let bits = input_bits a in
  if bits > max_bits then
    invalid_arg
      (Printf.sprintf "Hls_check.exhaustive: %d input bits exceed budget %d"
         bits max_bits);
  exhaustive_pair (prepare "Hls_check.exhaustive" a b) bits

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

let corners_pair pr a =
  let vectors = Array.of_list (corner_vectors a) in
  let fill inputs ~base ~n =
    for l = 0 to n - 1 do
      List.iteri
        (fun s (_, v) ->
          for i = 0 to Bv.width v - 1 do
            if Bv.get v i then set_lane inputs.(s) i l
          done)
        vectors.(base + l)
    done
  in
  match check_vectors pr ~total:(Array.length vectors) ~fill with
  | Some failure -> failure
  | None -> Passed (Array.length vectors)

let corners a b = corners_pair (prepare "Hls_check.corners" a b) a

(* [n] draws of [Hls_sim.random_inputs], bit for bit from the same
   stream: vector by vector, port by port, LSB first. *)
let fill_random prng inputs ~base:_ ~n =
  for l = 0 to n - 1 do
    Array.iter
      (fun w ->
        for i = 0 to Array.length w - 1 do
          if Hls_util.Prng.bool prng then set_lane w i l
        done)
      inputs
  done

let equivalent ?(exhaustive_budget = 16) ?(samples = 200) ?(seed = 0) a b =
  check_budget "Hls_check.equivalent" exhaustive_budget;
  let bits = input_bits a in
  if bits <= exhaustive_budget then
    exhaustive_pair (prepare "Hls_check.exhaustive" a b) bits
  else
    let pr = prepare "Hls_check.corners" a b in
    match corners_pair pr a with
    | Failed _ as f -> f
    | Proved -> Proved
    | Passed n_corners -> (
        let fill = fill_random (Hls_util.Prng.create ~seed) in
        match check_vectors pr ~total:samples ~fill with
        | Some failure -> failure
        | None -> Passed (n_corners + samples))
