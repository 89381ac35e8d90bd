(** The versioned request surface of the toolchain: one sum type covering
    every verb, with its JSON wire codec.  The CLI, the server and the
    tests all build these values and execute them through {!Exec}, so
    each verb has exactly one code path.

    Wire envelope (one JSON object per line):

    {v {"v": 1, "id": "42", "method": "report", "params": {...}} v}

    The ["v"] field is explicit and checked before anything else: a
    request from a future protocol decodes to [`Unsupported_version]
    without guessing at its params.

    The codec is one verb table: each verb's wire name, its params
    descriptor ({!Hls_dse.Codec}) and the injection and projection
    between params and constructor.  {!method_name}, {!to_json} and
    {!envelope_of_json} all dispatch through it. *)

(** The wire protocol version this library speaks. *)
val version : int

(** Where the specification comes from.  [File] paths are resolved on the
    executing side (the server's filesystem, for a remote call); [Source]
    ships the text itself and is what the CLI sends over [--connect]. *)
type spec = Source of string | File of string | Builtin of string

(** Wire-level flow configuration: the library, the transformation recipe
    and the verify policy are carried as strings so the request is
    serializable; {!pipeline_config} resolves them.  Decoding accepts the
    legacy ["cleanup"] boolean of older v1 clients and maps it onto the
    ["cleanup"] preset recipe. *)
type config = {
  lib_name : string;
  policy : Hls_fragment.Mobility.policy;
  balance : bool;
  transform : string;  (** behavioural transformation recipe spec *)
  verify : string;  (** equivalence-gate policy on its passes *)
  iterate : int;
      (** feedback-iteration round budget applied after the one-shot
          schedule; 0 (the default) keeps every verb one-shot *)
}

(** Ripple library, full fragmentation, balancing on, no transformation —
    the paper's reproduction settings. *)
val default_config : config

(** Resolve the named library, parse the recipe and verify policy, and
    build the pipeline's config record; [Error] on an unknown library
    name, a bad recipe spec or an unknown verify policy. *)
val pipeline_config : config -> (Hls_core.Pipeline.config, string) result

type flow = Conventional | Blc | Optimized

val flow_name : flow -> string
val flow_of_name : string -> flow option

(** A flow on the wire, by name. *)
val flow_codec : flow Hls_dse.Codec.t

type emit_format = Vhdl | Vhdl_rtl | Vhdl_netlist | Verilog | Verilog_tb

val format_name : emit_format -> string
val format_of_name : string -> emit_format option

(** An emit format on the wire, by name. *)
val format_codec : emit_format Hls_dse.Codec.t

type explore_params = {
  latencies : int list;
  policies : Hls_fragment.Mobility.policy list;
  lib_names : string list;
  balance_axis : bool list;
  recipes : string list;  (** transformation-recipe axis *)
  iterates : int list;  (** feedback-iteration budget axis *)
  verify : string;  (** gate policy applied when recipes run *)
  jobs : int option;  (** worker domains; [None] = auto *)
  timeout_s : float option;
  feedback : int;
  retries : int;
  backoff_s : float;
  degrade : bool;
}

val default_explore_params : explore_params

type t =
  | Ping  (** liveness probe: no spec, answered without staging work *)
  | Parse of { spec : spec }
  | Optimize of { spec : spec; latency : int; config : config; vhdl : bool }
  | Report of {
      spec : spec;
      latency : int;
      config : config;
      target_ns : float option;
    }
  | Schedule of { spec : spec; latency : int; flow : flow; config : config }
  | Explore of { spec : spec; params : explore_params }
  | Transform of { spec : spec; recipe : string; verify : string }
  | Simulate of {
      spec : spec;
      latency : int;
      seed : int;
      config : config;
      vcd : bool;
    }
  | Emit of { spec : spec; latency : int; format : emit_format; config : config }
  | Iterate of { spec : spec; latency : int; rounds : int; config : config }
      (** one-shot schedule at [latency], then up to [rounds] accepted
          feedback rounds of critical-region re-scheduling *)
  | Stats  (** serving-tier gauges: no spec, answered without staging *)
  | Workloads of { tag : string option }
      (** list the workload catalog, optionally filtered by tag: no
          spec, answered without staging *)
  | Fuzz of {
      seed : int;
      budget : int;  (** total cases, split across the selected lanes *)
      lanes : string list;  (** lane names; empty selects every lane *)
      dir : string;  (** corpus / repro directory *)
      max_seconds : float;  (** wall-clock bound for the run *)
    }  (** a differential-fuzzing run; no spec of its own *)

(** The wire ["method"] name: ping, parse, optimize, report, schedule,
    explore, transform, simulate, emit, iterate, stats, workloads or
    fuzz. *)
val method_name : t -> string

(** The specification a verb operates on; [None] for {!Ping},
    {!Stats}, {!Workloads} and {!Fuzz}. *)
val spec_of : t -> spec option

(** Encode the envelope.  [deadline_ms] is an absolute wall-clock
    deadline in milliseconds since the Unix epoch; servers shed work
    past it as a retryable timeout instead of burning a worker. *)
val to_json : ?id:string -> ?deadline_ms:float -> t -> Hls_dse.Dse_json.t

type decode_error = [ `Usage of string | `Unsupported_version of int ]

(** A decoded envelope: the request plus its transport-level fields. *)
type envelope = {
  env_id : string option;
  env_deadline_ms : float option;
      (** absolute deadline, ms since the Unix epoch *)
  env_req : t;
}

(** Decode a full request envelope.  Unknown [params] fields are ignored
    and missing optional ones take the CLI's defaults, so old clients
    keep working against newer servers; an unknown method, a version
    other than {!version}, or a field of the wrong type (including a
    non-string ["id"] or a non-number ["deadline_ms"]; [null] there means
    absent) is rejected. *)
val envelope_of_json :
  Hls_dse.Dse_json.t -> (envelope, decode_error) result

(** {!envelope_of_json} over a raw line. *)
val envelope_of_string : string -> (envelope, decode_error) result

(** {!envelope_of_json}, dropping the deadline — for callers that only
    need the id and the request. *)
val of_json : Hls_dse.Dse_json.t -> (string option * t, decode_error) result

(** {!of_json} over a raw line. *)
val of_string : string -> (string option * t, decode_error) result
