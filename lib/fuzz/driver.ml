module Prng = Hls_util.Prng
module Elab = Hls_speclang.Elaborate
module Build = Hls_speclang.Build
module Catalog = Hls_workloads.Catalog
module P = Hls_core.Pipeline
module T = Hls_telemetry

type lane = Spec | Diff | Codec

let lane_name = function Spec -> "spec" | Diff -> "diff" | Codec -> "codec"

let lane_of_string = function
  | "spec" -> Ok Spec
  | "diff" -> Ok Diff
  | "codec" -> Ok Codec
  | s -> Error (Printf.sprintf "unknown lane %S (spec, diff, codec)" s)

type lane_summary = {
  l_lane : string;
  l_cases : int;
  l_mismatches : int;
  l_skipped : int;
  l_repros : (string * int) list;
}

type summary = {
  s_seed : int;
  s_cases : int;
  s_mismatches : int;
  s_skipped : int;
  s_coverage : int;
  s_wall_s : float;
  s_lanes : lane_summary list;
}

type config = {
  seed : int;
  budget : int;
  lanes : lane list;
  dir : string;
  max_seconds : float;
  vectors : int;
  transforms : Diff.transform list;
  iterates : int list;
  use_catalog : bool;
  codec_case : (Prng.t -> (unit, string) result) option;
}

let default_config =
  {
    seed = 1;
    budget = 200;
    lanes = [ Spec; Diff; Codec ];
    dir = "_fuzz";
    max_seconds = 120.;
    vectors = 8;
    transforms = Diff.presets ();
    iterates = [ 0; 3 ];
    use_catalog = true;
    codec_case = None;
  }

let make_config ?(seed = default_config.seed) ?(budget = default_config.budget)
    ?(lanes = default_config.lanes) ?(dir = default_config.dir)
    ?(max_seconds = default_config.max_seconds)
    ?(vectors = default_config.vectors)
    ?(transforms = default_config.transforms)
    ?(iterates = default_config.iterates)
    ?(use_catalog = default_config.use_catalog) ?codec_case () =
  {
    seed;
    budget;
    lanes;
    dir;
    max_seconds;
    vectors;
    transforms;
    iterates;
    use_catalog;
    codec_case;
  }

(* ------------------------------------------------------------------ *)
(* Per-lane bookkeeping.                                               *)

type state = {
  mutable cases : int;
  mutable mismatches : int;
  mutable skipped : int;
  mutable repros : (string * int) list;
}

let state () = { cases = 0; mismatches = 0; skipped = 0; repros = [] }

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let record_repro cfg st ~lane ~detail ?(ops = 0) content =
  ensure_dir cfg.dir;
  let path =
    Filename.concat cfg.dir
      (Printf.sprintf "%s-%03d.spec" lane (List.length st.repros))
  in
  let header =
    Printf.sprintf "# fuzz repro (seed %d, lane %s)\n# %s\n" cfg.seed lane
      detail
  in
  write_file path (header ^ content);
  st.repros <- st.repros @ [ (path, ops) ];
  T.count "fuzz.repros"

(* The op-count cap above which the scheduled (cycle-accurate) check is
   skipped: preparing and scheduling very large graphs would blow the
   lane's time budget without exercising anything new. *)
let sched_cap = 64

(* ------------------------------------------------------------------ *)
(* Spec lane: generation self-checks and printer/emitter round trips.   *)

let spec_case cfg st prng coverage profile =
  let ast = Gen.spec prng !profile in
  let src = Build.to_source ast in
  match Elab.from_string_result src with
  | Error m ->
      st.mismatches <- st.mismatches + 1;
      record_repro cfg st ~lane:"spec" ~detail:("re-parse failed: " ^ m) src
  | Ok g -> (
      if Coverage.observe coverage g = 0 then profile := Gen.mutate prng !profile;
      match Hls_speclang.Emit.emit g with
      | exception Hls_speclang.Emit.Unprintable _ ->
          st.skipped <- st.skipped + 1
      | emitted -> (
          match Elab.from_string_result emitted with
          | Error m ->
              st.mismatches <- st.mismatches + 1;
              record_repro cfg st ~lane:"spec"
                ~detail:("emitted source failed to elaborate: " ^ m)
                src
          | Ok g2 -> (
              match Diff.sampled g g2 ~vectors:cfg.vectors ~prng with
              | Ok () -> ()
              | Error m ->
                  st.mismatches <- st.mismatches + 1;
                  record_repro cfg st ~lane:"spec"
                    ~detail:("emitter changed behaviour: " ^ m)
                    src)))

(* ------------------------------------------------------------------ *)
(* Diff lane.                                                          *)

(* Re-runs the failing behavioural check deterministically, as the
   shrinker's keep predicate. *)
let still_fails cfg t ast =
  match Elab.elaborate ast with
  | exception _ -> false
  (* A module the shrinker reduced to no outputs trivially "differs"
     (the simulator has nothing to compare) — never accept it. *)
  | g when g.Hls_dfg.Graph.outputs = [] -> false
  | g -> (
      match
        Diff.behavioural g t ~vectors:cfg.vectors
          ~prng:(Prng.create ~seed:cfg.seed)
      with
      | Diff.Mismatch _ -> true
      | Diff.Match | Diff.Skip _ -> false)

let diff_mismatch cfg st ~t ~detail ast_opt =
  st.mismatches <- st.mismatches + 1;
  match ast_opt with
  | None -> record_repro cfg st ~lane:"diff" ~detail ""
  | Some ast ->
      let shrunk =
        T.with_span "fuzz.shrink" (fun () ->
            Shrink.run ~keep:(still_fails cfg t) ast)
      in
      record_repro cfg st ~lane:"diff"
        ~detail:(Printf.sprintf "transform %s: %s" t.Diff.t_name detail)
        ~ops:(Shrink.op_count shrunk)
        (Build.to_source shrunk)

let diff_graph cfg st prng ~latency ast_opt g =
  List.iter
    (fun t ->
      match Diff.behavioural g t ~vectors:cfg.vectors ~prng with
      | Diff.Match -> ()
      | Diff.Skip _ -> st.skipped <- st.skipped + 1
      | Diff.Mismatch m -> diff_mismatch cfg st ~t ~detail:m ast_opt)
    cfg.transforms;
  if Hls_dfg.Graph.behavioural_op_count g <= sched_cap then
    List.iter
      (fun iterate ->
        match
          Diff.scheduled g ~iterate ~latency ~vectors:cfg.vectors ~prng
        with
        | Diff.Match -> ()
        | Diff.Skip _ -> st.skipped <- st.skipped + 1
        | Diff.Mismatch m ->
            st.mismatches <- st.mismatches + 1;
            record_repro cfg st ~lane:"diff"
              ~detail:
                (Printf.sprintf "scheduled (iterate %d, latency %d): %s"
                   iterate latency m)
              (match ast_opt with
              | Some ast -> Build.to_source ast
              | None -> ""))
      cfg.iterates
  else st.skipped <- st.skipped + 1

(* ------------------------------------------------------------------ *)

let run cfg =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. cfg.max_seconds in
  let coverage = Coverage.create () in
  let lanes = if cfg.lanes = [] then default_config.lanes else cfg.lanes in
  let per_lane = max 1 (cfg.budget / List.length lanes) in
  let case_index = ref 0 in
  let within_budget st = st.cases < per_lane && Unix.gettimeofday () < deadline in
  let next_case st =
    (* Fault injection reaches individual fuzz cases through the shared
       job probe, exactly like pool jobs. *)
    Hls_util.Faults.on_job !case_index;
    incr case_index;
    st.cases <- st.cases + 1;
    T.count "fuzz.cases"
  in
  let run_lane lane =
    let st = state () in
    let prng = Prng.create ~seed:(cfg.seed + (17 * Hashtbl.hash lane)) in
    T.with_span ("fuzz." ^ lane_name lane) (fun () ->
        (match lane with
        | Spec ->
            let profile = ref Gen.default_profile in
            while within_budget st do
              next_case st;
              spec_case cfg st prng coverage profile
            done
        | Diff ->
            (* First the whole catalog through every transform — the
               acceptance sweep — then coverage-steered generated specs. *)
            if cfg.use_catalog then
              List.iter
                (fun e ->
                  if within_budget st then begin
                    next_case st;
                    let g = Catalog.graph e in
                    ignore (Coverage.observe coverage g);
                    diff_graph cfg st prng
                      ~latency:e.Catalog.default_latency None g
                  end)
                (Catalog.all ());
            let profile = ref Gen.default_profile in
            let stale = ref 0 in
            while within_budget st do
              next_case st;
              let ast = Gen.spec prng !profile in
              match Elab.elaborate ast with
              | exception _ -> st.skipped <- st.skipped + 1
              | g ->
                  if Coverage.observe coverage g = 0 then incr stale
                  else stale := 0;
                  if !stale >= 5 then begin
                    profile := Gen.mutate prng !profile;
                    stale := 0
                  end;
                  diff_graph cfg st prng
                    ~latency:(P.free_floating_latency g)
                    (Some ast) g
            done
        | Codec -> (
            match cfg.codec_case with
            | None -> ()
            | Some case ->
                while within_budget st do
                  next_case st;
                  match case prng with
                  | Ok () -> ()
                  | Error m ->
                      st.mismatches <- st.mismatches + 1;
                      record_repro cfg st ~lane:"codec" ~detail:m ""
                done));
        {
          l_lane = lane_name lane;
          l_cases = st.cases;
          l_mismatches = st.mismatches;
          l_skipped = st.skipped;
          l_repros = st.repros;
        })
  in
  let lane_summaries = List.map run_lane lanes in
  let sum f = List.fold_left (fun a l -> a + f l) 0 lane_summaries in
  {
    s_seed = cfg.seed;
    s_cases = sum (fun l -> l.l_cases);
    s_mismatches = sum (fun l -> l.l_mismatches);
    s_skipped = sum (fun l -> l.l_skipped);
    s_coverage = Coverage.distinct coverage;
    s_wall_s = Unix.gettimeofday () -. t0;
    s_lanes = lane_summaries;
  }
