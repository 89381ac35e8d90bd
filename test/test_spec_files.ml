(* Specification sources loaded from disk: the language handles real
   benchmark-sized programs, and the elaborated graphs are bit-true against
   the hand-built workload versions. *)

module Elaborate = Hls_speclang.Elaborate


(* The deprecated [Pipeline.optimized] wrapper collapsed into
   [Pipeline.run]; unwrap the result the way the old entry point did. *)
let optimized ?lib ?policy ?balance ?transform g ~latency =
  match
    Hls_core.Pipeline.run_graph
      (Hls_core.Pipeline.make_config ?lib ?policy ?balance ?transform ())
      g ~latency
  with
  | Ok r -> r
  | Error f -> raise (Hls_util.Failure.Flow_failure f)

let read path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load path =
  match Elaborate.from_string_result (read path) with
  | Ok g -> g
  | Error m -> Alcotest.failf "%s: %s" path m

let test_diffeq_spec_file () =
  let g = load "specs/diffeq.spec" in
  let builtin = Hls_workloads.Benchmarks.diffeq () in
  match
    Hls_sim.equivalent g builtin ~trials:60
      ~prng:(Hls_util.Prng.create ~seed:21)
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "diffeq.spec differs from the builder: %s" m

let test_fir2_spec_file () =
  let g = load "specs/fir2.spec" in
  let builtin = Hls_workloads.Benchmarks.fir2 () in
  match
    Hls_sim.equivalent g builtin ~trials:60
      ~prng:(Hls_util.Prng.create ~seed:22)
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fir2.spec differs from the builder: %s" m

let test_sat_accumulate_spec () =
  let g = load "specs/sat_accumulate.spec" in
  let mk v = Hls_bitvec.of_int ~width:12 v in
  let run acc sample limit =
    Hls_bitvec.to_signed_int
      (List.assoc "next"
         (Hls_sim.outputs g
            ~inputs:[ ("acc", mk acc); ("sample", mk sample);
                      ("limit", mk limit) ]))
  in
  Alcotest.(check int) "below limit" 30 (run 10 20 100);
  Alcotest.(check int) "clamped" 100 (run 90 20 100);
  (* And it goes through the whole flow. *)
  let opt = optimized g ~latency:2 in
  match Hls_core.Pipeline.check_optimized_equivalence ~trials:40 g opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sat flow: %s" m

let test_spec_files_through_flow () =
  List.iter
    (fun (path, latency) ->
      let g = load path in
      let opt = optimized g ~latency in
      match Hls_core.Pipeline.check_optimized_equivalence ~trials:20 g opt with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" path m)
    [ ("specs/diffeq.spec", 5); ("specs/fir2.spec", 3) ]

let suite =
  [
    Alcotest.test_case "diffeq.spec ≡ builder" `Quick test_diffeq_spec_file;
    Alcotest.test_case "fir2.spec ≡ builder" `Quick test_fir2_spec_file;
    Alcotest.test_case "sat_accumulate.spec" `Quick test_sat_accumulate_spec;
    Alcotest.test_case "spec files through the flow" `Quick
      test_spec_files_through_flow;
  ]
