(* The fuzzing subsystem's own tests: generator soundness, shrinker
   fixpoint, and — the one that justifies the whole lane — a deliberately
   buggy rewrite pass that the differential driver must catch and shrink
   to a small repro.  The catalog API the fuzzer sweeps is covered here
   too, from the typed-entry side ([Test_workloads] covers the graphs). *)

module Gen = Hls_fuzz.Gen
module Shrink = Hls_fuzz.Shrink
module Diff = Hls_fuzz.Diff
module Driver = Hls_fuzz.Driver
module Build = Hls_speclang.Build
module Elaborate = Hls_speclang.Elaborate
module Catalog = Hls_workloads.Catalog
module Prng = Hls_util.Prng
module T = Hls_dfg.Types

(* ---------------------------------------------------------------- *)
(* Generator: every drawn spec elaborates, even after profile drift. *)

let prop_gen_elaborates =
  QCheck.Test.make ~name:"generated specs always elaborate" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create ~seed in
      (* Walk the profile the way the coverage loop does, so the property
         covers mutated corners, not just the default knobs. *)
      let profile = ref Gen.default_profile in
      for _ = 1 to 4 do
        let src = Build.to_source (Gen.spec prng !profile) in
        (match Elaborate.from_string_result src with
        | Ok _ -> ()
        | Error m -> QCheck.Test.fail_reportf "seed %d: %s@.%s" seed m src);
        profile := Gen.mutate prng !profile
      done;
      true)

(* ---------------------------------------------------------------- *)
(* Shrinker: result is a fixpoint, and candidates handed to [keep]
   always elaborate. *)

let test_shrink_fixpoint () =
  let prng = Prng.create ~seed:11 in
  let ast = Gen.spec prng Gen.default_profile in
  let keep candidate =
    (* Shrink as far as the structure allows while the module still
       computes anything at all — and prove the shrinker's promise that
       [keep] only ever judges well-formed specs. *)
    (match Elaborate.from_string_result (Build.to_source candidate) with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "shrinker offered ill-formed candidate: %s" m);
    Shrink.op_count candidate >= 1
  in
  let s1 = Shrink.run ~keep ast in
  let s2 = Shrink.run ~keep s1 in
  Alcotest.(check string)
    "second shrink changes nothing" (Build.to_source s1) (Build.to_source s2);
  Alcotest.(check bool)
    "shrink never grows" true
    (Shrink.op_count s1 <= Shrink.op_count ast)

(* ---------------------------------------------------------------- *)
(* The planted bug: an Add→Sub rewrite the diff lane must catch, with a
   repro shrunk small enough to read. *)

let add_to_sub g =
  Hls_dfg.Rewrite.run g ~f:(fun ctx n ->
      match n.T.kind with
      | T.Add when List.length n.T.operands = 2 ->
          Hls_dfg.Builder.node ctx.Hls_dfg.Rewrite.b T.Sub ~width:n.T.width
            ~signedness:n.T.signedness ~label:n.T.label
            (List.map (Hls_dfg.Rewrite.map_operand ctx) n.T.operands)
      | _ -> Hls_dfg.Rewrite.copy ctx n)

let test_planted_pass_caught () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hls_fuzz_planted_%d" (Unix.getpid ()))
  in
  let cfg =
    Driver.make_config ~seed:5 ~budget:30 ~lanes:[ Driver.Diff ] ~dir
      ~max_seconds:60. ~vectors:8
      ~transforms:[ { Diff.t_name = "planted-add-to-sub"; t_apply = add_to_sub } ]
      ~iterates:[] ~use_catalog:false ()
  in
  let s = Driver.run cfg in
  Alcotest.(check bool)
    "diff lane catches the planted bug" true
    (s.Driver.s_mismatches >= 1);
  let repros =
    List.concat_map (fun (l : Driver.lane_summary) -> l.Driver.l_repros)
      s.Driver.s_lanes
  in
  Alcotest.(check bool) "at least one repro written" true (repros <> []);
  let spec_ops = List.filter_map
      (fun (_, ops) -> if ops > 0 then Some ops else None) repros
  in
  let min_ops = List.fold_left min max_int spec_ops in
  if min_ops > 8 then
    Alcotest.failf "smallest shrunk repro has %d ops (want <= 8)" min_ops;
  (* Every repro file on disk must itself elaborate — a repro that cannot
     be replayed is worse than none. *)
  List.iter
    (fun (path, ops) ->
      if ops > 0 then begin
        let ic = open_in path in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        match Elaborate.from_string_result src with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "repro %s does not elaborate: %s" path m
      end)
    repros

let test_clean_presets_quiet () =
  (* The real presets through a tiny budget must stay mismatch-free:
     the planted-bug test only means something if a clean run is quiet. *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hls_fuzz_clean_%d" (Unix.getpid ()))
  in
  let cfg =
    Driver.make_config ~seed:3 ~budget:12 ~lanes:[ Driver.Diff ] ~dir
      ~max_seconds:60. ~vectors:6 ~use_catalog:false ()
  in
  let s = Driver.run cfg in
  Alcotest.(check int) "no mismatches" 0 s.Driver.s_mismatches;
  Alcotest.(check bool) "cases ran" true (s.Driver.s_cases >= 1)

let test_lane_of_string () =
  List.iter
    (fun l ->
      match Driver.lane_of_string (Driver.lane_name l) with
      | Ok l' -> Alcotest.(check bool) "round trip" true (l = l')
      | Error m -> Alcotest.fail m)
    [ Driver.Spec; Driver.Diff; Driver.Codec ];
  match Driver.lane_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus lane accepted"
  | Error _ -> ()

(* ---------------------------------------------------------------- *)
(* Catalog: typed entries, tags, provenance, spec-file loading. *)

let test_catalog_entries () =
  let entries = Catalog.all () in
  Alcotest.(check bool) "catalog populated" true (List.length entries >= 10);
  Alcotest.(check (list string))
    "names match entries"
    (List.map (fun (e : Catalog.entry) -> e.Catalog.name) entries)
    (Catalog.names ());
  (* Every entry's graph thunk must actually build. *)
  List.iter
    (fun (e : Catalog.entry) -> ignore (Catalog.graph e))
    entries

let test_catalog_find () =
  (match Catalog.find "fir8" with
  | None -> Alcotest.fail "fir8 missing from catalog"
  | Some e ->
      (match e.Catalog.kind with
      | Catalog.Spec_file _ -> ()
      | k -> Alcotest.failf "fir8 kind %s, want spec-file" (Catalog.kind_to_string k));
      Alcotest.(check bool)
        "spec-file entries carry their source" true
        (e.Catalog.source <> None);
      Alcotest.(check bool) "default latency sane" true
        (e.Catalog.default_latency >= 1));
  Alcotest.(check bool) "find_graph works" true
    (Catalog.find_graph "fir8" <> None);
  Alcotest.(check (option Alcotest.reject)) "unknown name" None
    (Option.map ignore (Catalog.find "no-such-workload"))

let test_catalog_tags () =
  let dsp = Catalog.with_tag "dsp" in
  Alcotest.(check bool) "dsp tag populated" true (dsp <> []);
  List.iter
    (fun (e : Catalog.entry) ->
      Alcotest.(check bool)
        (e.Catalog.name ^ " tagged dsp") true
        (List.mem "dsp" e.Catalog.tags))
    dsp;
  Alcotest.(check bool) "tag index lists dsp" true
    (List.mem "dsp" (Catalog.tags ()));
  Alcotest.(check string) "kind strings" "generated:7"
    (Catalog.kind_to_string (Catalog.Generated { seed = 7 }))

let test_catalog_of_spec_file () =
  let path =
    Filename.temp_file (Printf.sprintf "hls_fuzz_spec_%d" (Unix.getpid ())) ".spec"
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let oc = open_out path in
  output_string oc
    "module tempsum;\ninput a : 8;\ninput b : 8;\noutput o : 8;\no = a + b;\nend\n";
  close_out oc;
  (match Catalog.of_spec_file path with
  | Error m -> Alcotest.fail m
  | Ok e ->
      Alcotest.(check string) "named after the module" "tempsum" e.Catalog.name;
      (match e.Catalog.kind with
      | Catalog.Spec_file f -> Alcotest.(check string) "file recorded" path f
      | k -> Alcotest.failf "kind %s" (Catalog.kind_to_string k));
      Alcotest.(check bool) "source captured" true (e.Catalog.source <> None);
      ignore (Catalog.graph e));
  match Catalog.of_spec_file "no-such-dir/no-such.spec" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let test_workloads_verb_lists_all () =
  let t = Hls_api.Exec.create () in
  Fun.protect ~finally:(fun () -> Hls_api.Exec.close t) @@ fun () ->
  match Hls_api.Exec.run t (Hls_api.Request.Workloads { tag = None }) with
  | Ok (Hls_api.Response.Workloads rows) ->
      Alcotest.(check (list string))
        "workloads verb lists every catalog entry" (Catalog.names ())
        (List.map (fun (w : Hls_api.Response.workload_row) ->
             w.Hls_api.Response.w_name) rows)
  | Ok _ -> Alcotest.fail "wrong payload kind"
  | Error e ->
      Alcotest.failf "workloads verb failed: %s"
        (Hls_api.Response.error_message e)

(* ---------------------------------------------------------------- *)
(* Build combinators: a programmatically built module means the same
   thing as its hand-written concrete syntax. *)

let test_build_roundtrip () =
  let a = Build.ref_ ~name:"a" ~width:8 ~signed:false in
  let b = Build.ref_ ~name:"b" ~width:8 ~signed:false in
  let sum = Build.add a b in
  let clipped =
    Build.ternary
      ~cond:(Build.cmp Hls_speclang.Ast.Gt sum (Build.lit ~value:200 ~width:8))
      (Build.lit ~value:200 ~width:8)
      sum
  in
  let ast =
    Build.module_ ~name:"clip"
      ~decls:
        [
          Build.input ~name:"a" ~width:8 ~signed:false;
          Build.input ~name:"b" ~width:8 ~signed:false;
          Build.output ~name:"o" ~width:8;
        ]
      ~stmts:[ Build.assign ~name:"o" ~width:8 clipped ]
  in
  let built = Elaborate.from_string (Build.to_source ast) in
  let written =
    Elaborate.from_string
      {|
module clip;
input a : 8;
input b : 8;
output o : 8;
o = (a + b > 200) ? 200 : (a + b);
end
|}
  in
  match
    Diff.sampled built written ~vectors:64 ~prng:(Prng.create ~seed:9)
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let suite =
  [
    QCheck_alcotest.to_alcotest prop_gen_elaborates;
    Alcotest.test_case "shrinker reaches a fixpoint" `Quick test_shrink_fixpoint;
    Alcotest.test_case "planted buggy pass caught and shrunk" `Slow
      test_planted_pass_caught;
    Alcotest.test_case "clean presets stay quiet" `Slow test_clean_presets_quiet;
    Alcotest.test_case "lane names round-trip" `Quick test_lane_of_string;
    Alcotest.test_case "catalog entries" `Quick test_catalog_entries;
    Alcotest.test_case "catalog find" `Quick test_catalog_find;
    Alcotest.test_case "catalog tags" `Quick test_catalog_tags;
    Alcotest.test_case "catalog of_spec_file" `Quick test_catalog_of_spec_file;
    Alcotest.test_case "workloads verb lists all" `Quick
      test_workloads_verb_lists_all;
    Alcotest.test_case "build combinators round-trip" `Quick
      test_build_roundtrip;
  ]
