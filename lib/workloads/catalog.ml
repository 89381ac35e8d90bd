(* The single source of truth for named workloads.  The CLI (`workloads`,
   `report`, `explore`, ...), the bench harness, the fuzzer's differential
   lane and the router's affinity memo all go through these entries, so
   names, tags and default parameters stay consistent everywhere. *)

type kind =
  | Builtin
  | Spec_file of string
  | Generated of { seed : int }

type entry = {
  name : string;
  kind : kind;
  tags : string list;
  source : string option;
  default_latency : int;
  default_lib : string;
  build : unit -> Hls_dfg.Graph.t;
}

let builtin name ~tags ~latency build =
  {
    name;
    kind = Builtin;
    tags;
    source = None;
    default_latency = latency;
    default_lib = "ripple";
    build;
  }

let spec name ~tags ~latency src build =
  {
    name;
    kind = Spec_file (name ^ ".spec");
    tags;
    source = Some src;
    default_latency = latency;
    default_lib = "ripple";
    build;
  }

let generated name ~tags ~latency ~seed build =
  {
    name;
    kind = Generated { seed };
    tags;
    source = None;
    default_latency = latency;
    default_lib = "ripple";
    build;
  }

let random ~ops ~lanes ~seed () =
  Random_dfg.generate
    ~profile:{ Random_dfg.default_profile with ops; mul_ratio = 12; lanes }
    ~seed ()

let all () =
  [
    builtin "chain3" ~tags:[ "paper"; "tiny" ] ~latency:3 Motivational.chain3;
    builtin "fig3" ~tags:[ "paper"; "tiny" ] ~latency:3 Motivational.fig3;
    builtin "elliptic" ~tags:[ "paper"; "filter" ] ~latency:8
      Benchmarks.elliptic;
    builtin "diffeq" ~tags:[ "paper" ] ~latency:6 Benchmarks.diffeq;
    builtin "iir4" ~tags:[ "paper"; "filter"; "iir" ] ~latency:6
      Benchmarks.iir4;
    builtin "fir2" ~tags:[ "paper"; "filter"; "fir" ] ~latency:4
      Benchmarks.fir2;
    spec "fir8" ~tags:[ "dsp"; "filter"; "fir" ] ~latency:6 Fir.fir8_src
      Fir.fir8;
    spec "iir2" ~tags:[ "dsp"; "filter"; "iir" ] ~latency:6 Dsp.iir2_src
      Dsp.iir2;
    spec "butterfly4" ~tags:[ "dsp"; "fft" ] ~latency:6 Dsp.butterfly4_src
      Dsp.butterfly4;
    spec "fletcher16" ~tags:[ "crypto"; "checksum" ] ~latency:8
      Dsp.fletcher16_src Dsp.fletcher16;
    builtin "adpcm-iaq" ~tags:[ "adpcm" ] ~latency:8 Adpcm.iaq;
    builtin "adpcm-ttd" ~tags:[ "adpcm" ] ~latency:8 Adpcm.ttd;
    builtin "adpcm-opfc-sca" ~tags:[ "adpcm" ] ~latency:8 Adpcm.opfc_sca;
    builtin "adpcm-decoder" ~tags:[ "adpcm" ] ~latency:14 Adpcm.decoder;
    builtin "ar-lattice" ~tags:[ "filter" ] ~latency:8 Extra.ar_lattice;
    builtin "dct8" ~tags:[ "dsp"; "dct" ] ~latency:8 Extra.dct8;
    (* Random stress workloads for the timing kernels: multi-lane profiles
       guarantee several weakly-connected regions. *)
    generated "random240" ~tags:[ "stress" ] ~latency:14 ~seed:43
      (random ~ops:240 ~lanes:3 ~seed:43);
    generated "random480" ~tags:[ "stress" ] ~latency:14 ~seed:44
      (random ~ops:480 ~lanes:6 ~seed:44);
  ]

let names () = List.map (fun e -> e.name) (all ())
let find name = List.find_opt (fun e -> e.name = name) (all ())
let graph e = e.build ()

(* Graphs of the static registry, built and digested once per process:
   (name, (graph, digest)), at most one per registry entry.  The lock
   lets concurrent domains share the first build. *)
let built : (string * (Hls_dfg.Graph.t * string)) list ref = ref []
let built_lock = Mutex.create ()

let find_graph name =
  Option.map
    (fun e ->
      Mutex.protect built_lock (fun () ->
          match List.assoc_opt name !built with
          | Some (g, _) -> g
          | None ->
              let g = graph e in
              built := (name, (g, Hls_dfg.Graph.digest g)) :: !built;
              g))
    (find name)

let built_digest g =
  Mutex.protect built_lock (fun () ->
      List.find_map (fun (_, (g', d)) -> if g' == g then Some d else None) !built)

let with_tag tag = List.filter (fun e -> List.mem tag e.tags) (all ())

let tags () =
  List.sort_uniq compare (List.concat_map (fun e -> e.tags) (all ()))

let kind_to_string = function
  | Builtin -> "builtin"
  | Spec_file _ -> "spec-file"
  | Generated { seed } -> Printf.sprintf "generated:%d" seed

let of_spec_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | src -> (
      match Hls_speclang.Elaborate.from_string_result src with
      | Error m -> Error m
      | Ok g ->
          let name = Hls_dfg.Graph.name g in
          Ok
            {
              name;
              kind = Spec_file path;
              tags = [ "file" ];
              source = Some src;
              default_latency = 6;
              default_lib = "ripple";
              build = (fun () -> Hls_speclang.Elaborate.from_string src);
            })
