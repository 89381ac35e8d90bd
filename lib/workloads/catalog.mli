(** The workload catalog: a typed record per workload replacing the old
    [Registry] association list.

    Each entry says where the workload comes from ({!kind}), what it is
    good for ([tags]), and which scheduling parameters the tooling should
    default to, alongside the graph thunk itself.  Lookup helpers return
    entries, not bare graphs, so callers can render provenance ([hlsopt
    workloads]) or select by tag ([fuzz], [bench]) without a side table. *)

type kind =
  | Builtin  (** constructed in OCaml, in-tree *)
  | Spec_file of string  (** elaborated from a behavioural-language source *)
  | Generated of { seed : int }  (** seeded random DFG *)

type entry = {
  name : string;
  kind : kind;
  tags : string list;
  source : string option;  (** the speclang source, for [Spec_file] entries *)
  default_latency : int;  (** λ the tooling defaults to for this workload *)
  default_lib : string;  (** technology library the defaults were tuned on *)
  build : unit -> Hls_dfg.Graph.t;
}

val all : unit -> entry list
(** Every registered workload, in presentation order. *)

val names : unit -> string list
val find : string -> entry option

val graph : entry -> Hls_dfg.Graph.t
(** Build (elaborate / generate) the entry's graph. *)

val find_graph : string -> Hls_dfg.Graph.t option
(** [find] composed with {!graph} — the common lookup.  Each registry
    entry is built once per process: every later call returns the same
    (immutable) graph, with its {!Hls_dfg.Graph.digest} kept beside it. *)

val built_digest : Hls_dfg.Graph.t -> string option
(** The digest kept beside a graph {!find_graph} returned (matched by
    physical equality); [None] for any other graph. *)

val with_tag : string -> entry list
(** Entries carrying the given tag. *)

val tags : unit -> string list
(** Every tag in use, sorted and deduplicated. *)

val kind_to_string : kind -> string
(** ["builtin"], ["spec-file"] or ["generated:<seed>"]. *)

val of_spec_file : string -> (entry, string) result
(** Load a behavioural-language source from disk as a catalog entry named
    after the module it declares.  Errors are parse/elaboration messages
    or the filesystem complaint. *)
