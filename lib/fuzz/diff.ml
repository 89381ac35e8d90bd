module Graph = Hls_dfg.Graph
module X = Hls_xform
module P = Hls_core.Pipeline
module Prng = Hls_util.Prng

type transform = { t_name : string; t_apply : Graph.t -> Graph.t }

let presets () =
  List.map
    (fun (name, recipe) ->
      {
        t_name = name;
        t_apply =
          (fun g -> (X.Engine.apply ~policy:X.Verify.Off recipe g).X.Engine.graph);
      })
    [
      ("cleanup", X.Recipe.cleanup);
      ("standard", X.Recipe.standard);
      ("aggressive", X.Recipe.aggressive);
    ]

type verdict = Match | Skip of string | Mismatch of string

let sampled g g' ~vectors ~prng =
  match
    Hls_check.equivalent ~exhaustive_budget:0 ~samples:vectors
      ~seed:(Prng.int prng 0x3fffffff) g g'
  with
  | Hls_check.Proved | Hls_check.Passed _ -> Ok ()
  | Hls_check.Failed _ as v ->
      Error (Format.asprintf "%a" Hls_check.pp_verdict v)
  | exception Invalid_argument m -> Error m

let behavioural g t ~vectors ~prng =
  match t.t_apply g with
  | exception e ->
      Mismatch (Printf.sprintf "%s raised %s" t.t_name (Printexc.to_string e))
  | g' -> (
      match sampled g g' ~vectors ~prng with
      | Ok () -> Match
      | Error m -> Mismatch (Printf.sprintf "%s: %s" t.t_name m))

(* Compare the scheduled, cycle-accurate execution with the behavioural
   reference on [vectors] random input vectors. *)
let replay g schedule ~vectors ~prng =
  let rec go n =
    if n = 0 then Match
    else
      let inputs = Hls_sim.random_inputs g prng in
      let expect = Hls_sim.outputs g ~inputs in
      match Hls_rtl.Cycle_sim.run_fragment schedule ~inputs with
      | exception Hls_rtl.Cycle_sim.Violation m ->
          Mismatch ("cycle-sim violation: " ^ m)
      | fr ->
          let bad =
            List.find_opt
              (fun (name, v) ->
                match List.assoc_opt name fr.Hls_rtl.Cycle_sim.fr_outputs with
                | Some v' -> not (Hls_bitvec.equal v v')
                | None -> true)
              expect
          in
          (match bad with
          | Some (name, v) ->
              Mismatch
                (Printf.sprintf "output %s: behavioural %s, scheduled %s" name
                   (Hls_bitvec.to_string v)
                   (match
                      List.assoc_opt name fr.Hls_rtl.Cycle_sim.fr_outputs
                    with
                   | Some v' -> Hls_bitvec.to_string v'
                   | None -> "<missing>"))
          | None -> go (n - 1))
  in
  go vectors

let scheduled g ~iterate ~latency ~vectors ~prng =
  match P.prepare g with
  | exception e -> Skip (Hls_util.Failure.to_string (P.classify_exn e))
  | p -> (
      let config = P.make_config ~iterate () in
      let outcome =
        if iterate > 0 then
          Result.map (fun (r, _) -> r) (P.run_iterated config p ~latency)
        else P.run config p ~latency
      in
      match outcome with
      | Ok r -> replay g r.P.schedule ~vectors ~prng
      | Error (Hls_util.Failure.Infeasible m) -> Skip ("infeasible: " ^ m)
      | Error f -> Mismatch (Hls_util.Failure.to_string f))
