(** Typed responses and the api's error taxonomy, with the JSON wire
    codec.  Each payload record is one {!Hls_dse.Codec} descriptor, and
    the payload is a variant tagged by its ["kind"] field; report
    metrics reuse {!Hls_dse.Cache.metrics_codec}, sweeps
    {!Hls_dse.Explore.codec} and failures {!Hls_dse.Codec.failure},
    so the sweep cache, the [--json] sweep output and the server wire
    format share one encoding and cannot drift apart.  The error object
    is written by hand: its [exit_code] and [retryable] are derived. *)

type graph_stats = {
  gs_name : string;
  gs_inputs : int;
  gs_outputs : int;
  gs_nodes : int;
  gs_ops : int;
  gs_critical : int;  (** critical path of the extracted kernel, in δ *)
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
  s_rows : cycle_row list;  (** per-cycle operation labels *)
  s_profile : profile_row list;  (** optimized flow only *)
  s_used_delta : int option;  (** optimized: achieved chain *)
  s_cycle_delta : int option;  (** conventional: cycle length; blc: budget *)
  s_gantt : (string * int list) list;
      (** optimized: per original operation, the cycles its fragments
          occupy *)
}

type reported = {
  r_stats : graph_stats;
  r_latency : int;
  r_target : (float * int) option;
      (** the request's period target and the latency it resolved to *)
  r_conventional : Hls_dse.Cache.metrics;
  r_optimized : Hls_dse.Cache.metrics;
  r_equivalence : string option;  (** [None] = check passed *)
  r_saved_pct : float;
}

type simulated = {
  sim_latency : int;
  sim_inputs : (string * int) list;
  sim_outputs : (string * int * int) list;
      (** (port, behavioural value, gate-level value) *)
  sim_vcd : string option;
}

(** One pass application of a transform request: the wire shape of the
    engine's log entry, its plan condensed to sizes. *)
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
  x_checks : int;  (** equivalence checks run *)
  x_rejected : int;  (** applications rolled back *)
  x_log : transform_entry list;
  x_pretty : string;  (** the transformed graph, printed *)
}

(** One round of the feedback-iteration loop as reported on the wire:
    what was attempted (target latency, chain cap, extracted-region
    size) and what came of it. *)
type iter_round = {
  ir_index : int;
  ir_target : int;  (** latency the round tried to reach *)
  ir_cap : int;  (** chain cap (δ) the re-schedule ran under *)
  ir_region : int;  (** critical-region size, in graph nodes *)
  ir_region_adds : int;
  ir_pinned : bool;  (** accepted schedule kept the boundary pins *)
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
  it_stop : string;  (** why the loop ended *)
  it_rounds : iter_round list;
}

(** One workload-catalog entry as listed on the wire. *)
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
  fl_repros : (string * int) list;
      (** repro file and its op count (0 when not a spec) *)
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
      (** liveness probe reply, carrying the answering process's pid *)
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
      (** serving-tier gauges; [st_source] names the answering tier
          ("router" or "exec") *)
  | Workloads of workload_row list  (** the workload catalog *)
  | Fuzzed of fuzzed  (** summary of a fuzzing run *)

type error =
  | Usage of string  (** the request itself is wrong *)
  | Unsupported_version of int
  | Overloaded of { queued : int; capacity : int }
      (** the server's admission queue is full — retry later *)
  | Unavailable of string
      (** nothing can take the request right now: dead fleet, shutdown
          drain, transport failure — retryable, exit code 8 *)
  | Failed of Hls_util.Failure.t  (** the flow failed; see the taxonomy *)

type t = { id : string option; result : (payload, error) result }

val ok : ?id:string -> payload -> t
val fail : ?id:string -> error -> t

(** The process exit code the CLI maps this error to: 2 usage /
    unsupported version, 6 overloaded, 8 unavailable, and the
    {!Hls_util.Failure.exit_code} mapping (3 infeasible, 4 timeout,
    5 resource, 7 internal) for flow failures.  0 is success, 1 is left
    to the shell and uncontrolled crashes, 124/125 stay reserved by
    cmdliner. *)
val exit_code : error -> int

val error_message : error -> string

(** Whether retrying the same request may succeed ([Overloaded],
    [Unavailable] and the {!Hls_util.Failure.retryable} classes). *)
val retryable : error -> bool

val payload_to_json : payload -> Hls_dse.Dse_json.t
(** The ["result"] object alone — what [--json] subcommands print. *)

val to_json : t -> Hls_dse.Dse_json.t
val to_string : t -> string

(** Exact inverse of {!to_json} on everything {!to_json} produces:
    [to_json (of_json (to_json t)) = to_json t].  [Failed (Internal _)]
    decodes through {!Hls_util.Failure.Remote}, which preserves the
    printed text. *)
val of_json : Hls_dse.Dse_json.t -> (t, string) result

val of_string : string -> (t, string) result
