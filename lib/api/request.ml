(* The versioned request surface: one sum type covering everything the
   toolchain can be asked to do, with a JSON wire codec.  The CLI, the
   server and the tests all build these values and push them through
   Exec, so there is exactly one code path per verb.

   Wire envelope (NDJSON, one object per line):

     {"v": 1, "id": "...", "method": "report", "params": {...}}

   ["v"] is explicit and checked first: a request from the future is
   rejected as [`Unsupported_version] without guessing at its params.
   Everything under "params" is read off the verb table [verbs]: one
   entry per verb, its params written once as a Codec descriptor. *)

module J = Hls_dse.Dse_json
module Space = Hls_dse.Space
module C = Hls_dse.Codec

let version = 1

type spec =
  | Source of string  (** inline specification text *)
  | File of string  (** path resolved on the executing side *)
  | Builtin of string  (** named workload from the registry *)

type config = {
  lib_name : string;
  policy : Hls_fragment.Mobility.policy;
  balance : bool;
  transform : string;  (** behavioural transformation recipe spec *)
  verify : string;  (** equivalence-gate policy on its passes *)
  iterate : int;  (** feedback-iteration round budget; 0 = one-shot *)
}

let default_config =
  { lib_name = "ripple"; policy = `Full; balance = true; transform = "none";
    verify = "off"; iterate = 0 }

let pipeline_config c =
  let ( let* ) = Result.bind in
  let* lib =
    Option.to_result
      ~none:(Printf.sprintf "unknown library %S" c.lib_name)
      (Space.lib_of_name c.lib_name)
  in
  let* transform = Hls_xform.Recipe.parse c.transform in
  let* verify =
    Option.to_result
      ~none:
        (Printf.sprintf "unknown verify policy %S (use %s)" c.verify
           (String.concat ", "
              (List.map Hls_xform.Verify.to_string Hls_xform.Verify.all)))
      (Hls_xform.Verify.of_string c.verify)
  in
  Ok
    (Hls_core.Pipeline.make_config ~lib ~policy:c.policy ~balance:c.balance
       ~transform ~verify ~iterate:c.iterate ())

type flow = Conventional | Blc | Optimized

let flow_name = function
  | Conventional -> "conventional"
  | Blc -> "blc"
  | Optimized -> "optimized"

let flow_of_name = function
  | "conventional" -> Some Conventional
  | "blc" -> Some Blc
  | "optimized" -> Some Optimized
  | _ -> None

type emit_format = Vhdl | Vhdl_rtl | Vhdl_netlist | Verilog | Verilog_tb

let format_name = function
  | Vhdl -> "vhdl"
  | Vhdl_rtl -> "vhdl-rtl"
  | Vhdl_netlist -> "vhdl-netlist"
  | Verilog -> "verilog"
  | Verilog_tb -> "verilog-tb"

let format_of_name = function
  | "vhdl" -> Some Vhdl
  | "vhdl-rtl" -> Some Vhdl_rtl
  | "vhdl-netlist" -> Some Vhdl_netlist
  | "verilog" -> Some Verilog
  | "verilog-tb" -> Some Verilog_tb
  | _ -> None

type explore_params = {
  latencies : int list;
  policies : Hls_fragment.Mobility.policy list;
  lib_names : string list;
  balance_axis : bool list;
  recipes : string list;  (** transformation-recipe axis *)
  iterates : int list;  (** feedback-iteration budget axis *)
  verify : string;  (** gate policy applied when recipes run *)
  jobs : int option;
  timeout_s : float option;
  feedback : int;
  retries : int;
  backoff_s : float;
  degrade : bool;
}

let default_explore_params =
  {
    latencies = [ 2; 3; 4; 5; 6 ];
    policies = [ `Full ];
    lib_names = [ "ripple" ];
    balance_axis = [ true ];
    recipes = [ "none" ];
    iterates = [ 0 ];
    verify = "off";
    jobs = None;
    timeout_s = None;
    feedback = 0;
    retries = 1;
    backoff_s = 0.05;
    degrade = false;
  }

type t =
  | Ping
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
  | Stats
  | Workloads of { tag : string option }
  | Fuzz of {
      seed : int;
      budget : int;
      lanes : string list;  (** empty = every lane *)
      dir : string;
      max_seconds : float;
    }

let spec_of = function
  | Ping -> None
  | Parse { spec } -> Some spec
  | Optimize { spec; _ } -> Some spec
  | Report { spec; _ } -> Some spec
  | Schedule { spec; _ } -> Some spec
  | Explore { spec; _ } -> Some spec
  | Transform { spec; _ } -> Some spec
  | Simulate { spec; _ } -> Some spec
  | Emit { spec; _ } -> Some spec
  | Iterate { spec; _ } -> Some spec
  | Stats -> None
  | Workloads _ -> None
  | Fuzz _ -> None

(* ------------------------------------------------------------------ *)
(* The wire codec: one descriptor per params record, one verb table.
   Absent params fields take the CLI's defaults, so old clients keep
   working against newer servers; unknown fields are ignored.           *)

let spec_codec =
  C.keyed ~what:"spec"
    [
      C.case "source" C.string (fun s -> Source s) (function
        | Source s -> Some s
        | _ -> None);
      C.case "file" C.string (fun f -> File f) (function
        | File f -> Some f
        | _ -> None);
      C.case "builtin" C.string (fun b -> Builtin b) (function
        | Builtin b -> Some b
        | _ -> None);
    ]

let config_codec =
  let d = default_config in
  C.(
    obj (fun lib_name policy balance transform verify iterate ->
        { lib_name; policy; balance; transform; verify; iterate })
    |> dft ~label:{|config "lib"|} "lib" string ~default:d.lib_name (fun c ->
           c.lib_name)
    |> dft ~label:{|config "policy"|} "policy" Space.policy_codec
         ~default:d.policy (fun c -> c.policy)
    |> dft "balance" bool ~default:d.balance (fun c -> c.balance)
    (* v1 clients before the transform field sent a "cleanup" boolean; it
       maps onto the "cleanup" preset recipe *)
    |> dft "transform" string ~default:d.transform
         ~alias:
           ( "cleanup",
             map
               (fun c -> if c then "cleanup" else d.transform)
               (String.equal "cleanup") bool )
         (fun c -> c.transform)
    |> dft "verify" string ~default:d.verify (fun (c : config) -> c.verify)
    |> dft "iterate" int ~default:d.iterate (fun c -> c.iterate)
    |> finish ~what:"config")

let flow_codec =
  C.enum ~expected:{|"conventional", "blc" or "optimized"|} flow_name
    flow_of_name

let format_codec =
  C.enum ~expected:"one of vhdl, vhdl-rtl, vhdl-netlist, verilog, verilog-tb"
    format_name format_of_name

(* Fields most verbs share. *)
let spec_field get = C.req "spec" spec_codec get
let latency_field get = C.dft "latency" C.int ~default:3 get
let config_field get = C.dft "config" config_codec ~default:default_config get

(* The verb table: wire name, projection, and the params descriptor whose
   constructor is the injection.  A verb with an inline record projects
   to a tuple in wire order. *)
let verbs =
  let d = default_explore_params in
  let verb name proj o = C.obj_case ~what:"params" name proj o in
  C.
    [
      verb "ping" (function Ping -> Some () | _ -> None) (obj Ping);
      verb "parse"
        (function Parse r -> Some r.spec | _ -> None)
        (obj (fun spec -> Parse { spec }) |> spec_field Fun.id);
      verb "optimize"
        (function
          | Optimize r -> Some (r.spec, r.latency, r.config, r.vhdl)
          | _ -> None)
        (obj (fun spec latency config vhdl ->
             Optimize { spec; latency; config; vhdl })
        |> spec_field (fun (s, _, _, _) -> s)
        |> latency_field (fun (_, l, _, _) -> l)
        |> config_field (fun (_, _, c, _) -> c)
        |> dft "vhdl" bool ~default:false (fun (_, _, _, v) -> v));
      verb "report"
        (function
          | Report r -> Some (r.spec, r.latency, r.config, r.target_ns)
          | _ -> None)
        (obj (fun spec latency config target_ns ->
             Report { spec; latency; config; target_ns })
        |> spec_field (fun (s, _, _, _) -> s)
        |> latency_field (fun (_, l, _, _) -> l)
        |> config_field (fun (_, _, c, _) -> c)
        |> opt "target_ns" float (fun (_, _, _, t) -> t));
      verb "schedule"
        (function
          | Schedule r -> Some (r.spec, r.latency, r.flow, r.config)
          | _ -> None)
        (obj (fun spec latency flow config ->
             Schedule { spec; latency; flow; config })
        |> spec_field (fun (s, _, _, _) -> s)
        |> latency_field (fun (_, l, _, _) -> l)
        |> dft "flow" flow_codec ~default:Optimized (fun (_, _, f, _) -> f)
        |> config_field (fun (_, _, _, c) -> c));
      verb "explore"
        (function Explore r -> Some (r.spec, r.params) | _ -> None)
        (obj
           (fun spec latencies policies lib_names balance_axis recipes iterates
                verify jobs timeout_s feedback retries backoff_s degrade ->
             let params =
               {
                 latencies; policies; lib_names; balance_axis; recipes;
                 iterates; verify; jobs; timeout_s; feedback; retries;
                 backoff_s; degrade;
               }
             in
             Explore { spec; params })
        |> spec_field fst
        |> dft "latencies" (list int) ~default:d.latencies (fun (_, p) ->
               p.latencies)
        |> dft "policies" (list Space.policy_codec) ~default:d.policies
             (fun (_, p) -> p.policies)
        |> dft "libs" (list string) ~default:d.lib_names (fun (_, p) ->
               p.lib_names)
        |> dft "balance" (list bool) ~default:d.balance_axis (fun (_, p) ->
               p.balance_axis)
        (* v1 clients before the recipe axis sent a "cleanup" bool axis;
           each flag maps onto its preset recipe *)
        |> dft "recipes" (list string) ~default:d.recipes
             ~alias:
               ( "cleanup",
                 map
                   (function
                     | [] -> d.recipes
                     | flags ->
                         List.map
                           (fun c -> if c then "cleanup" else "none")
                           flags)
                   (List.map (String.equal "cleanup"))
                   (list bool) )
             (fun (_, p) -> p.recipes)
        |> dft "iterates" (list int) ~default:d.iterates (fun (_, p) ->
               p.iterates)
        |> dft "verify" string ~default:d.verify (fun (_, p) -> p.verify)
        |> opt "jobs" int (fun (_, p) -> p.jobs)
        |> opt "timeout_s" float (fun (_, p) -> p.timeout_s)
        |> dft "feedback" int ~default:d.feedback (fun (_, p) -> p.feedback)
        |> dft "retries" int ~default:d.retries (fun (_, p) -> p.retries)
        |> dft "backoff_s" float ~default:d.backoff_s (fun (_, p) ->
               p.backoff_s)
        |> dft "degrade" bool ~default:d.degrade (fun (_, p) -> p.degrade));
      verb "transform"
        (function Transform r -> Some (r.spec, r.recipe, r.verify) | _ -> None)
        (obj (fun spec recipe verify -> Transform { spec; recipe; verify })
        |> spec_field (fun (s, _, _) -> s)
        |> dft "recipe" string ~default:"standard" (fun (_, r, _) -> r)
        |> dft "verify" string ~default:"every_pass" (fun (_, _, v) -> v));
      verb "simulate"
        (function
          | Simulate r -> Some (r.spec, r.latency, r.seed, r.config, r.vcd)
          | _ -> None)
        (obj (fun spec latency seed config vcd ->
             Simulate { spec; latency; seed; config; vcd })
        |> spec_field (fun (s, _, _, _, _) -> s)
        |> latency_field (fun (_, l, _, _, _) -> l)
        |> dft "seed" int ~default:1 (fun (_, _, s, _, _) -> s)
        |> config_field (fun (_, _, _, c, _) -> c)
        |> dft "vcd" bool ~default:false (fun (_, _, _, _, v) -> v));
      verb "emit"
        (function
          | Emit r -> Some (r.spec, r.latency, r.format, r.config) | _ -> None)
        (obj (fun spec latency format config ->
             Emit { spec; latency; format; config })
        |> spec_field (fun (s, _, _, _) -> s)
        |> latency_field (fun (_, l, _, _) -> l)
        |> dft "format" format_codec ~default:Vhdl (fun (_, _, f, _) -> f)
        |> config_field (fun (_, _, _, c) -> c));
      verb "iterate"
        (function
          | Iterate r -> Some (r.spec, r.latency, r.rounds, r.config)
          | _ -> None)
        (obj (fun spec latency rounds config ->
             Iterate { spec; latency; rounds; config })
        |> spec_field (fun (s, _, _, _) -> s)
        |> latency_field (fun (_, l, _, _) -> l)
        |> dft "rounds" int ~default:8 (fun (_, _, r, _) -> r)
        |> config_field (fun (_, _, _, c) -> c));
      verb "stats" (function Stats -> Some () | _ -> None) (obj Stats);
      verb "workloads"
        (function Workloads r -> Some r.tag | _ -> None)
        (obj (fun tag -> Workloads { tag }) |> opt "tag" string Fun.id);
      verb "fuzz"
        (function
          | Fuzz r -> Some (r.seed, r.budget, r.lanes, r.dir, r.max_seconds)
          | _ -> None)
        (obj (fun seed budget lanes dir max_seconds ->
             Fuzz { seed; budget; lanes; dir; max_seconds })
        |> dft "seed" int ~default:1 (fun (s, _, _, _, _) -> s)
        |> dft "budget" int ~default:200 (fun (_, b, _, _, _) -> b)
        |> dft "lanes" (list string) ~default:[] (fun (_, _, l, _, _) -> l)
        |> dft "dir" string ~default:"_fuzz" (fun (_, _, _, d, _) -> d)
        |> dft "max_seconds" float ~default:120. (fun (_, _, _, _, m) -> m));
    ]

let method_name = C.case_name verbs

(* The envelope's optional transport fields; [null] spells absent. *)
let transport =
  C.(
    obj (fun id deadline_ms -> (id, deadline_ms))
    |> opt "id" string fst
    |> opt "deadline_ms" float snd
    |> finish)

let to_json ?id ?deadline_ms t =
  let name, params = C.encode_case verbs t in
  J.Obj
    ((("v", J.Int version) :: C.fields transport (id, deadline_ms))
    @ [ ("method", J.String name); ("params", params) ])

type decode_error = [ `Usage of string | `Unsupported_version of int ]

type envelope = {
  env_id : string option;
  env_deadline_ms : float option;
  env_req : t;
}

let envelope_of_json j =
  let usage m = Error (`Usage m) in
  match Option.map J.to_int (J.member "v" j) with
  | None -> usage "request without a \"v\" version field"
  | Some None -> usage "request \"v\" must be an integer"
  | Some (Some n) when n <> version -> Error (`Unsupported_version n)
  | Some (Some _) -> (
      match C.decode transport j with
      | Error m -> usage m
      | Ok (env_id, env_deadline_ms) -> (
          match Option.bind (J.member "method" j) J.to_str with
          | None -> usage "request without a \"method\" field"
          | Some name -> (
              let params =
                Option.value (J.member "params" j) ~default:(J.Obj [])
              in
              match C.decode_case verbs name params with
              | None -> usage (Printf.sprintf "unknown method %S" name)
              | Some (Error m) -> usage m
              | Some (Ok env_req) -> Ok { env_id; env_deadline_ms; env_req })))

let of_json j =
  match envelope_of_json j with
  | Error e -> Error e
  | Ok { env_id; env_req; _ } -> Ok (env_id, env_req)

let envelope_of_string line =
  match J.of_string line with
  | Error m -> Error (`Usage ("bad JSON: " ^ m))
  | Ok j -> envelope_of_json j

let of_string line =
  match J.of_string line with
  | Error m -> Error (`Usage ("bad JSON: " ^ m))
  | Ok j -> of_json j
