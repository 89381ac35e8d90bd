(** Seeded random DFG generator.

    Used by property tests and by the stress benchmarks: generates layered
    behavioural DAGs with a controllable operation mix, always reproducible
    from the seed. *)

open Hls_dfg.Types
module B = Hls_dfg.Builder

type profile = {
  ops : int;  (** number of behavioural operations *)
  max_width : int;
  mul_ratio : int;  (** one in [mul_ratio] operations is a multiply; 0 = none *)
  cmp_ratio : int;  (** one in [cmp_ratio] is a comparison; 0 = none *)
  reuse : int;  (** 1 in [reuse] operands is a fresh input (lower = wider DAG) *)
  signed : bool;
  lanes : int;
      (** independent operation streams: ops are dealt round-robin across
          [lanes] and operand reuse never crosses a lane, so the graph has
          at least [lanes] weakly-connected regions *)
}

let default_profile =
  { ops = 20; max_width = 16; mul_ratio = 6; cmp_ratio = 0; reuse = 3;
    signed = false; lanes = 1 }

(** Additions only: the kernel-form generator for scheduler stress. *)
let additive_profile =
  { default_profile with mul_ratio = 0; cmp_ratio = 0 }

let generate ?(profile = default_profile) ~seed () =
  if profile.lanes < 1 then
    invalid_arg "Random_dfg.generate: lanes must be >= 1";
  let prng = Hls_util.Prng.create ~seed in
  let b = B.create ~name:(Printf.sprintf "rand%d" seed) in
  let sd = if profile.signed then Signed else Unsigned in
  let fresh = ref 0 in
  (* One value pool per lane: reuse never crosses lanes, so each lane
     grows its own weakly-connected region. *)
  let pools = Array.init profile.lanes (fun _ -> ref []) in
  let rand_width () = 2 + Hls_util.Prng.int prng (profile.max_width - 1) in
  let operand values w =
    if !values = [] || Hls_util.Prng.int prng profile.reuse = 0 then begin
      incr fresh;
      B.input b (Printf.sprintf "x%d" !fresh) ~width:w ~signed:sd
    end
    else Hls_util.Prng.pick prng !values
  in
  for k = 1 to profile.ops do
    let values = pools.((k - 1) mod profile.lanes) in
    let operand w = operand values w in
    let w = rand_width () in
    let is_mul =
      profile.mul_ratio > 0 && Hls_util.Prng.int prng profile.mul_ratio = 0
    in
    let is_cmp =
      profile.cmp_ratio > 0 && Hls_util.Prng.int prng profile.cmp_ratio = 0
    in
    let v =
      if is_mul then
        let a = operand w in
        B.mul b ~width:w ~signedness:sd ~label:(Printf.sprintf "m%d" k) a
          (operand (rand_width ()))
      else if is_cmp then
        B.node b
          (Hls_util.Prng.pick prng [ Lt; Le; Gt; Ge ])
          ~width:1 ~signedness:sd
          ~label:(Printf.sprintf "c%d" k)
          [ operand w; operand w ]
      else
        let kind = if Hls_util.Prng.bool prng then Add else Sub in
        B.node b kind ~width:w ~signedness:sd
          ~label:(Printf.sprintf "a%d" k)
          [ operand w; operand w ]
    in
    values := v :: !values
  done;
  (* Expose every sink so nothing is dead. *)
  let sinks =
    List.concat_map
      (fun values ->
        List.filter
          (fun v ->
            match v.src with
            | Node _ -> true
            | Input _ | Const _ -> false)
          !values)
      (Array.to_list pools)
  in
  List.iteri (fun k v -> B.output b (Printf.sprintf "o%d" k) v) sinks;
  B.finish b
