(* The correctness gate, run outside the timed phase.  Every op's answer
   must equal the replayed answer of its request, and every replayed
   design point must pass checks that do not come from the compiler
   under test:

   - Hls_sim on the source graph against the transformed graph, on
     seeded input vectors;
   - Frag_sched.verify, the from-scratch schedule-legality checker;
   - for emit ops, Netlist.run of the elaborated netlist against the
     Hls_sim outputs on the same vectors. *)

module Sim = Hls_sim
module Bv = Hls_bitvec

let vectors = 6

(* [Ok ()] when every reference output port reads the same in [got]. *)
let outputs_agree ~reference ~got =
  let bad =
    List.find_opt
      (fun (port, v) ->
        match List.assoc_opt port got with
        | Some v' -> not (Bv.equal v v')
        | None -> true)
      reference
  in
  match bad with
  | None -> Ok ()
  | Some (port, v) ->
      Error
        (Printf.sprintf "output %s: expected %s, got %s" port (Bv.to_string v)
           (match List.assoc_opt port got with
           | Some v' -> Bv.to_string v'
           | None -> "nothing"))

let ( let* ) = Result.bind

let rec all_ok = function
  | [] -> Ok ()
  | f :: rest ->
      let* () = f () in
      all_ok rest

(* The independent checks on one replayed design point. *)
let check_point ~seed (pt : Replay.point) =
  let r = pt.Replay.result in
  let tg = r.Hls_core.Pipeline.transformed.Hls_fragment.Transform.graph in
  let latency = r.Hls_core.Pipeline.schedule.Hls_sched.Frag_sched.latency in
  let* () =
    Result.map_error
      (fun m -> "schedule illegal: " ^ m)
      (Hls_sched.Frag_sched.verify r.Hls_core.Pipeline.schedule)
  in
  let prng = Hls_util.Prng.create ~seed in
  all_ok
    (List.init vectors (fun _ () ->
         let inputs = Sim.random_inputs pt.Replay.source prng in
         let reference = Sim.outputs pt.Replay.source ~inputs in
         let* () =
           Result.map_error
             (fun m -> "transformed graph: " ^ m)
             (outputs_agree ~reference ~got:(Sim.outputs tg ~inputs))
         in
         match pt.Replay.netlist with
         | None -> Ok ()
         | Some nl ->
             Result.map_error
               (fun m -> "netlist: " ^ m)
               (outputs_agree ~reference
                  ~got:(Hls_rtl.Netlist.run nl ~cycles:latency ~inputs))))

(* Replay [req] untraced and check its design points: the answer every
   response to [req] must equal, or why the request cannot be trusted. *)
let reference ~seed ctx req =
  match Replay.run ctx req with
  | exception e -> Error ("replay failed: " ^ Printexc.to_string e)
  | answer, points -> (
      match all_ok (List.map (fun pt () -> check_point ~seed pt) points) with
      | Ok () -> Ok (answer, points)
      | Error m -> Error m
      | exception e -> Error ("check raised " ^ Printexc.to_string e))
