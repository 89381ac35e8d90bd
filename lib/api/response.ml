(* Typed responses and the error taxonomy of the api, with the JSON wire
   codec.  Payload records are Codec descriptors; report metrics reuse the
   sweep cache's descriptor and failures Codec.failure, so the
   CLI's --json output, the cache files and the server's wire format can
   never drift apart.  The error object stays hand-written: two of its
   fields are derived from the class.

   Wire shape (one object per line, mirroring the request envelope):

     {"v": 1, "id": "...", "ok": true,  "result": {"kind": "report", ...}}
     {"v": 1, "id": "...", "ok": false, "error": {"class": "infeasible",
                                                  "message": "...",
                                                  "exit_code": 3,
                                                  "retryable": false}} *)

module J = Hls_dse.Dse_json
module Cache = Hls_dse.Cache
module Failure = Hls_util.Failure
module C = Hls_dse.Codec

type graph_stats = {
  gs_name : string;
  gs_inputs : int;
  gs_outputs : int;
  gs_nodes : int;
  gs_ops : int;
  gs_critical : int;
}

type cycle_row = { cr_cycle : int; cr_ops : string list }

type profile_row = {
  pr_cycle : int;
  pr_chain : int;
  pr_fragments : int;
  pr_adder_bits : int;
}

type scheduled = {
  s_flow : Request.flow;
  s_latency : int;
  s_rows : cycle_row list;
  s_profile : profile_row list;
  s_used_delta : int option;
  s_cycle_delta : int option;
  s_gantt : (string * int list) list;
}

type reported = {
  r_stats : graph_stats;
  r_latency : int;
  r_target : (float * int) option;
  r_conventional : Cache.metrics;
  r_optimized : Cache.metrics;
  r_equivalence : string option;
  r_saved_pct : float;
}

type simulated = {
  sim_latency : int;
  sim_inputs : (string * int) list;
  sim_outputs : (string * int * int) list;
  sim_vcd : string option;
}

(* One pass application of a transform request, the wire shape of the
   engine's log entry (plans condensed to their sizes). *)
type transform_entry = {
  te_pass : string;
  te_fired : bool;  (** the graph actually changed *)
  te_accepted : bool;  (** [false]: rolled back by the verify gate *)
  te_sites : int;
  te_nodes_before : int;
  te_nodes_after : int;
  te_depth_before : int;
  te_depth_after : int;
  te_verdict : string option;  (** rendered verdict when checked *)
}

type transformed = {
  x_recipe : string;  (** canonical recipe spec *)
  x_verify : string;
  x_before : graph_stats;
  x_after : graph_stats;
  x_checks : int;
  x_rejected : int;
  x_log : transform_entry list;
  x_pretty : string;  (** the transformed graph, printed *)
}

(* One round of the feedback-iteration loop, as reported on the wire:
   what was attempted (target latency under which chain cap, over how
   large an extracted region) and what came of it. *)
type iter_round = {
  ir_index : int;
  ir_target : int;  (** latency the round tried to reach *)
  ir_cap : int;  (** chain cap (δ) the re-schedule ran under *)
  ir_region : int;  (** critical-region size, in graph nodes *)
  ir_region_adds : int;
  ir_pinned : bool;
      (** always [false] (iterate rounds no longer pin fragments); kept
          only so that existing callers and the wire field ["pinned"]
          stay compatible *)
  ir_accepted : bool;
  ir_latency : int;  (** incumbent latency after the round *)
  ir_delta : int;  (** incumbent peak chain after the round *)
}

type iterated = {
  it_initial_latency : int;
  it_final_latency : int;
  it_initial_delta : int;
  it_final_delta : int;
  it_saved_pct : float;  (** latency saving vs the one-shot, percent *)
  it_stop : string;  (** why the loop ended, [Iter.stop_to_string] *)
  it_rounds : iter_round list;
}

(* One workload-catalog entry as listed on the wire. *)
type workload_row = {
  w_name : string;
  w_kind : string;  (** "builtin", "spec-file" or "generated" *)
  w_tags : string list;
  w_ops : int;  (** behavioural operation count of the elaborated graph *)
  w_inputs : int;
  w_latency : int;  (** the catalog's default latency *)
}

type fuzz_lane = {
  fl_lane : string;
  fl_cases : int;
  fl_mismatches : int;
  fl_skipped : int;
  fl_repros : (string * int) list;  (** repro file and its op count *)
}

type fuzzed = {
  fz_seed : int;
  fz_cases : int;
  fz_mismatches : int;
  fz_skipped : int;
  fz_coverage : int;  (** distinct graph features observed *)
  fz_wall_s : float;
  fz_lanes : fuzz_lane list;
}

type payload =
  | Pong of { pong_pid : int }
  | Parsed of { stats : graph_stats; pretty : string }
  | Optimized of { critical : int; cycle : int; fragments : int; text : string }
  | Reported of reported
  | Scheduled of scheduled
  | Explored of Hls_dse.Explore.t
  | Transformed of transformed
  | Simulated of simulated
  | Emitted of { format : Request.emit_format; text : string }
  | Iterated of iterated
  | Stats of { st_source : string; st_gauges : (string * int) list }
  | Workloads of workload_row list
  | Fuzzed of fuzzed

type error =
  | Usage of string
  | Unsupported_version of int
  | Overloaded of { queued : int; capacity : int }
  | Unavailable of string
      (** no backend can take the request right now: dead fleet,
          shutdown drain, transport failure — retryable, exit 8 *)
  | Failed of Failure.t

type t = { id : string option; result : (payload, error) result }

let ok ?id payload = { id; result = Ok payload }
let fail ?id error = { id; result = Error error }

(* Process exit codes: the CLI maps its outcome through this, so scripts
   can tell "your request was wrong" (2) from "that point cannot exist"
   (3) from "the tool broke" (7).  0 success; 1 is left to the shell and
   uncontrolled crashes; 124/125 stay reserved by cmdliner. *)
let exit_code = function
  | Usage _ | Unsupported_version _ -> 2
  | Overloaded _ -> 6
  | Unavailable _ -> 8
  | Failed f -> Failure.exit_code f

let error_message = function
  | Usage m -> m
  | Unsupported_version n ->
      Printf.sprintf "unsupported protocol version %d (this side speaks %d)"
        n Request.version
  | Overloaded { queued; capacity } ->
      Printf.sprintf "server overloaded (%d queued, capacity %d); retry later"
        queued capacity
  | Unavailable m -> m
  | Failed f -> Failure.to_string f

let retryable = function
  | Usage _ | Unsupported_version _ -> false
  | Overloaded _ | Unavailable _ -> true
  | Failed f -> Failure.retryable f

(* ------------------------------------------------------------------ *)
(* The payload codec: one descriptor per result record, one case per
   payload kind, tagged by the "kind" field.  Optional values are written
   as null.                                                             *)

let stats_codec =
  C.(
    obj (fun gs_name gs_inputs gs_outputs gs_nodes gs_ops gs_critical ->
        { gs_name; gs_inputs; gs_outputs; gs_nodes; gs_ops; gs_critical })
    |> req "name" string (fun s -> s.gs_name)
    |> req "inputs" int (fun s -> s.gs_inputs)
    |> req "outputs" int (fun s -> s.gs_outputs)
    |> req "nodes" int (fun s -> s.gs_nodes)
    |> req "ops" int (fun s -> s.gs_ops)
    |> req "critical" int (fun s -> s.gs_critical)
    |> finish ~what:"stats")

let result o = C.finish ~what:"result" o

let reported_codec =
  C.(
    obj
      (fun r_stats r_latency r_target r_conventional r_optimized r_equivalence
           r_saved_pct ->
        {
          r_stats; r_latency; r_target; r_conventional; r_optimized;
          r_equivalence; r_saved_pct;
        })
    |> req "stats" stats_codec (fun r -> r.r_stats)
    |> req "latency" int (fun r -> r.r_latency)
    |> nullable "target"
         (obj (fun ns l -> (ns, l))
         |> req "ns" float fst
         |> req "latency" int snd
         |> finish ~what:"target")
         (fun r -> r.r_target)
    |> req "conventional" Cache.metrics_codec (fun r -> r.r_conventional)
    |> req "optimized" Cache.metrics_codec (fun r -> r.r_optimized)
    |> nullable "equivalence" string (fun r -> r.r_equivalence)
    |> req "saved_pct" float (fun r -> r.r_saved_pct)
    |> result)

let scheduled_codec =
  C.(
    obj
      (fun s_flow s_latency s_rows s_profile s_used_delta s_cycle_delta
           s_gantt ->
        {
          s_flow; s_latency; s_rows; s_profile; s_used_delta; s_cycle_delta;
          s_gantt;
        })
    |> req "flow" Request.flow_codec (fun s -> s.s_flow)
    |> req "latency" int (fun s -> s.s_latency)
    |> req "rows"
         (list
            (obj (fun cr_cycle cr_ops -> { cr_cycle; cr_ops })
            |> req "cycle" int (fun r -> r.cr_cycle)
            |> req "ops" (list string) (fun r -> r.cr_ops)
            |> finish ~what:"row"))
         (fun s -> s.s_rows)
    |> req "profile"
         (list
            (obj (fun pr_cycle pr_chain pr_fragments pr_adder_bits ->
                 { pr_cycle; pr_chain; pr_fragments; pr_adder_bits })
            |> req "cycle" int (fun p -> p.pr_cycle)
            |> req "chain" int (fun p -> p.pr_chain)
            |> req "fragments" int (fun p -> p.pr_fragments)
            |> req "adder_bits" int (fun p -> p.pr_adder_bits)
            |> finish ~what:"profile row"))
         (fun s -> s.s_profile)
    |> nullable "used_delta" int (fun s -> s.s_used_delta)
    |> nullable "cycle_delta" int (fun s -> s.s_cycle_delta)
    |> req "gantt"
         (list
            (obj (fun op cycles -> (op, cycles))
            |> req "op" string fst
            |> req "cycles" (list int) snd
            |> finish ~what:"gantt row"))
         (fun s -> s.s_gantt)
    |> result)

let transformed_codec =
  let entry =
    C.(
      obj
        (fun te_pass te_fired te_accepted te_sites te_nodes_before
             te_nodes_after te_depth_before te_depth_after te_verdict ->
          {
            te_pass; te_fired; te_accepted; te_sites; te_nodes_before;
            te_nodes_after; te_depth_before; te_depth_after; te_verdict;
          })
      |> req "pass" string (fun e -> e.te_pass)
      |> req "fired" bool (fun e -> e.te_fired)
      |> req "accepted" bool (fun e -> e.te_accepted)
      |> req "sites" int (fun e -> e.te_sites)
      |> req "nodes_before" int (fun e -> e.te_nodes_before)
      |> req "nodes_after" int (fun e -> e.te_nodes_after)
      |> req "depth_before" int (fun e -> e.te_depth_before)
      |> req "depth_after" int (fun e -> e.te_depth_after)
      |> nullable "verdict" string (fun e -> e.te_verdict)
      |> finish ~what:"log entry")
  in
  C.(
    obj
      (fun x_recipe x_verify x_before x_after x_checks x_rejected x_log
           x_pretty ->
        {
          x_recipe; x_verify; x_before; x_after; x_checks; x_rejected; x_log;
          x_pretty;
        })
    |> req "recipe" string (fun x -> x.x_recipe)
    |> req "verify" string (fun x -> x.x_verify)
    |> req "before" stats_codec (fun x -> x.x_before)
    |> req "after" stats_codec (fun x -> x.x_after)
    |> req "checks" int (fun x -> x.x_checks)
    |> req "rejected" int (fun x -> x.x_rejected)
    |> req "log" (list entry) (fun x -> x.x_log)
    |> req "pretty" string (fun x -> x.x_pretty)
    |> result)

let simulated_codec =
  C.(
    obj (fun sim_latency sim_inputs sim_outputs sim_vcd ->
        { sim_latency; sim_inputs; sim_outputs; sim_vcd })
    |> req "latency" int (fun s -> s.sim_latency)
    |> req "inputs"
         (list
            (obj (fun n v -> (n, v))
            |> req "name" string fst
            |> req "value" int snd
            |> finish ~what:"input"))
         (fun s -> s.sim_inputs)
    |> req "outputs"
         (list
            (obj (fun n b g -> (n, b, g))
            |> req "name" string (fun (n, _, _) -> n)
            |> req "behavioural" int (fun (_, b, _) -> b)
            |> req "gate" int (fun (_, _, g) -> g)
            |> finish ~what:"output"))
         (fun s -> s.sim_outputs)
    |> nullable "vcd" string (fun s -> s.sim_vcd)
    |> result)

let iterated_codec =
  let round =
    C.(
      obj
        (fun ir_index ir_target ir_cap ir_region ir_region_adds ir_pinned
             ir_accepted ir_latency ir_delta ->
          {
            ir_index; ir_target; ir_cap; ir_region; ir_region_adds; ir_pinned;
            ir_accepted; ir_latency; ir_delta;
          })
      |> req "index" int (fun r -> r.ir_index)
      |> req "target" int (fun r -> r.ir_target)
      |> req "cap" int (fun r -> r.ir_cap)
      |> req "region" int (fun r -> r.ir_region)
      |> req "region_adds" int (fun r -> r.ir_region_adds)
      |> req "pinned" bool (fun r -> r.ir_pinned)
      |> req "accepted" bool (fun r -> r.ir_accepted)
      |> req "latency" int (fun r -> r.ir_latency)
      |> req "delta" int (fun r -> r.ir_delta)
      |> finish ~what:"round")
  in
  C.(
    obj
      (fun it_initial_latency it_final_latency it_initial_delta it_final_delta
           it_saved_pct it_stop it_rounds ->
        {
          it_initial_latency; it_final_latency; it_initial_delta;
          it_final_delta; it_saved_pct; it_stop; it_rounds;
        })
    |> req "initial_latency" int (fun i -> i.it_initial_latency)
    |> req "final_latency" int (fun i -> i.it_final_latency)
    |> req "initial_delta" int (fun i -> i.it_initial_delta)
    |> req "final_delta" int (fun i -> i.it_final_delta)
    |> req "saved_pct" float (fun i -> i.it_saved_pct)
    |> req "stop" string (fun i -> i.it_stop)
    |> req "rounds" (list round) (fun i -> i.it_rounds)
    |> result)

let workload_codec =
  C.(
    obj (fun w_name w_kind w_tags w_ops w_inputs w_latency ->
        { w_name; w_kind; w_tags; w_ops; w_inputs; w_latency })
    |> req "name" string (fun w -> w.w_name)
    |> req "kind" string (fun w -> w.w_kind)
    |> req "tags" (list string) (fun w -> w.w_tags)
    |> req "ops" int (fun w -> w.w_ops)
    |> req "inputs" int (fun w -> w.w_inputs)
    |> req "latency" int (fun w -> w.w_latency)
    |> finish ~what:"workload")

let fuzzed_codec =
  let lane =
    C.(
      obj (fun fl_lane fl_cases fl_mismatches fl_skipped fl_repros ->
          { fl_lane; fl_cases; fl_mismatches; fl_skipped; fl_repros })
      |> req "lane" string (fun l -> l.fl_lane)
      |> req "cases" int (fun l -> l.fl_cases)
      |> req "mismatches" int (fun l -> l.fl_mismatches)
      |> req "skipped" int (fun l -> l.fl_skipped)
      |> req "repros"
           (list
              (obj (fun path ops -> (path, ops))
              |> req "path" string fst
              |> req "ops" int snd
              |> finish ~what:"repro"))
           (fun l -> l.fl_repros)
      |> finish ~what:"lane")
  in
  C.(
    obj
      (fun fz_seed fz_cases fz_mismatches fz_skipped fz_coverage fz_wall_s
           fz_lanes ->
        {
          fz_seed; fz_cases; fz_mismatches; fz_skipped; fz_coverage; fz_wall_s;
          fz_lanes;
        })
    |> req "seed" int (fun f -> f.fz_seed)
    |> req "cases" int (fun f -> f.fz_cases)
    |> req "mismatches" int (fun f -> f.fz_mismatches)
    |> req "skipped" int (fun f -> f.fz_skipped)
    |> req "coverage" int (fun f -> f.fz_coverage)
    |> req "wall_s" float (fun f -> f.fz_wall_s)
    |> req "lanes" (list lane) (fun f -> f.fz_lanes)
    |> result)

let payload_codec =
  let kind name proj o = C.obj_case ~what:"result" name proj o in
  C.(
    tagged "kind"
      [
        kind "pong"
          (function Pong r -> Some r.pong_pid | _ -> None)
          (obj (fun pong_pid -> Pong { pong_pid }) |> req "pid" int Fun.id);
        kind "parse"
          (function Parsed r -> Some (r.stats, r.pretty) | _ -> None)
          (obj (fun stats pretty -> Parsed { stats; pretty })
          |> req "stats" stats_codec fst
          |> req "pretty" string snd);
        kind "optimize"
          (function
            | Optimized r -> Some (r.critical, r.cycle, r.fragments, r.text)
            | _ -> None)
          (obj (fun critical cycle fragments text ->
               Optimized { critical; cycle; fragments; text })
          |> req "critical" int (fun (c, _, _, _) -> c)
          |> req "cycle" int (fun (_, c, _, _) -> c)
          |> req "fragments" int (fun (_, _, f, _) -> f)
          |> req "text" string (fun (_, _, _, t) -> t));
        case "report" reported_codec
          (fun r -> Reported r)
          (function Reported r -> Some r | _ -> None);
        case "schedule" scheduled_codec
          (fun s -> Scheduled s)
          (function Scheduled s -> Some s | _ -> None);
        kind "explore"
          (function Explored sweep -> Some sweep | _ -> None)
          (obj (fun sweep -> Explored sweep)
          |> req "sweep" Hls_dse.Explore.codec Fun.id);
        case "transform" transformed_codec
          (fun x -> Transformed x)
          (function Transformed x -> Some x | _ -> None);
        case "simulate" simulated_codec
          (fun s -> Simulated s)
          (function Simulated s -> Some s | _ -> None);
        kind "emit"
          (function Emitted r -> Some (r.format, r.text) | _ -> None)
          (obj (fun format text -> Emitted { format; text })
          |> req "format" Request.format_codec fst
          |> req "text" string snd);
        case "iterate" iterated_codec
          (fun i -> Iterated i)
          (function Iterated i -> Some i | _ -> None);
        kind "stats"
          (function Stats r -> Some (r.st_source, r.st_gauges) | _ -> None)
          (obj (fun st_source st_gauges -> Stats { st_source; st_gauges })
          |> req "source" string fst
          |> req "gauges" (assoc int) snd);
        kind "workloads"
          (function Workloads rows -> Some rows | _ -> None)
          (obj (fun rows -> Workloads rows)
          |> req "rows" (list workload_codec) Fun.id);
        case "fuzz" fuzzed_codec
          (fun f -> Fuzzed f)
          (function Fuzzed f -> Some f | _ -> None);
      ])

let payload_to_json = C.encode payload_codec
let gen_payload = C.gen payload_codec

let error_to_json e =
  let head =
    match e with
    | Usage m -> [ ("class", J.String "usage"); ("message", J.String m) ]
    | Unsupported_version n ->
        [
          ("class", J.String "unsupported-version");
          ("version", J.Int n);
          ("message", J.String (error_message (Unsupported_version n)));
        ]
    | Overloaded { queued; capacity } ->
        [
          ("class", J.String "overloaded");
          ("queued", J.Int queued);
          ("capacity", J.Int capacity);
          ("message", J.String (error_message (Overloaded { queued; capacity })));
        ]
    | Unavailable m ->
        [ ("class", J.String "unavailable"); ("message", J.String m) ]
    | Failed f -> C.fields C.failure f
  in
  J.Obj
    (head
    @ [ ("exit_code", J.Int (exit_code e)); ("retryable", J.Bool (retryable e)) ])

let to_json { id; result } =
  J.Obj
    ([ ("v", J.Int Request.version) ]
    @ (match id with None -> [] | Some i -> [ ("id", J.String i) ])
    @
    match result with
    | Ok p -> [ ("ok", J.Bool true); ("result", payload_to_json p) ]
    | Error e -> [ ("ok", J.Bool false); ("error", error_to_json e) ])

let to_string t = J.to_string (to_json t)

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

let ( let* ) = Result.bind

let need name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or bad %S field" name)

let error_of_json j =
  match Option.bind (J.member "class" j) J.to_str with
  | Some "usage" -> (
      match Option.bind (J.member "message" j) J.to_str with
      | Some m -> Ok (Usage m)
      | None -> Error "usage error without message")
  | Some "unsupported-version" -> (
      match Option.bind (J.member "version" j) J.to_int with
      | Some n -> Ok (Unsupported_version n)
      | None -> Error "unsupported-version error without version")
  | Some "overloaded" ->
      let* queued = need "queued" J.to_int j in
      let* capacity = need "capacity" J.to_int j in
      Ok (Overloaded { queued; capacity })
  | Some "unavailable" -> (
      match Option.bind (J.member "message" j) J.to_str with
      | Some m -> Ok (Unavailable m)
      | None -> Error "unavailable error without message")
  | Some _ ->
      let* f = C.decode C.failure j in
      Ok (Failed f)
  | None -> Error "error without a class field"

let of_json j =
  match Option.bind (J.member "v" j) J.to_int with
  | None -> Error "response without an integer \"v\" field"
  | Some n when n <> Request.version ->
      Error (Printf.sprintf "unsupported response version %d" n)
  | Some _ -> (
      let id = Option.bind (J.member "id" j) J.to_str in
      match Option.bind (J.member "ok" j) J.to_bool with
      | None -> Error "response without a boolean \"ok\" field"
      | Some true -> (
          match J.member "result" j with
          | None -> Error "ok response without a result"
          | Some r ->
              let* p = C.decode payload_codec r in
              Ok { id; result = Ok p })
      | Some false -> (
          match J.member "error" j with
          | None -> Error "error response without an error object"
          | Some e ->
              let* err = error_of_json e in
              Ok { id; result = Error err }))

let of_string line =
  match J.of_string line with
  | Error m -> Error ("bad JSON: " ^ m)
  | Ok j -> of_json j
