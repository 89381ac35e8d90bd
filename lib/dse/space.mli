(** Declarative description of a design-space sweep: one list of values
    per knob of the optimized flow, expanded into the cartesian product of
    concrete jobs in a deterministic (latency-major) order. *)

type t = {
  latencies : int list;
  policies : Hls_fragment.Mobility.policy list;
  libs : (string * Hls_techlib.t) list;  (** (display name, library) *)
  balance : bool list;
  recipes : string list;
      (** behavioural transformation recipe specs ({!Hls_xform.Recipe});
          ["none"] is the identity *)
  iterates : int list;
      (** feedback-iteration round budgets ({!Hls_iter.Iter}); [0] is
          one-shot scheduling *)
}

type job = {
  latency : int;
  policy : Hls_fragment.Mobility.policy;
  lib_name : string;
  lib : Hls_techlib.t;
  balance : bool;
  recipe : string;  (** the recipe spec as given on the axis *)
  iterate : int;  (** feedback-iteration budget; 0 = one-shot *)
}

(** Why a sweep description is not a sweep: an axis with no values, the
    same value twice on one axis (the point would run — and cache —
    twice under one key), or a recipe spec {!Hls_xform.Recipe.parse}
    rejects. *)
type axis_error =
  | Empty_axis of string  (** axis name *)
  | Duplicate_value of { axis : string; value : string }
  | Bad_recipe of { spec : string; reason : string }

val axis_error_to_string : axis_error -> string

(** Defaults: latencies 3–6, [`Full] policy, ripple library, balancing on,
    the ["none"] recipe, no iteration. *)
val make :
  ?latencies:int list ->
  ?policies:Hls_fragment.Mobility.policy list ->
  ?libs:(string * Hls_techlib.t) list ->
  ?balance:bool list ->
  ?recipes:string list ->
  ?iterates:int list ->
  unit -> (t, axis_error) result

val size : t -> int

(** Cartesian expansion, latencies in ascending order. *)
val jobs : t -> job list

val policy_name : Hls_fragment.Mobility.policy -> string
val policy_of_name : string -> Hls_fragment.Mobility.policy option

(** A policy on the wire, by name. *)
val policy_codec : Hls_fragment.Mobility.policy Codec.t

(** The libraries a sweep can name on the command line. *)
val known_libs : (string * Hls_techlib.t) list

val lib_of_name : string -> Hls_techlib.t option

(** Canonical parameter string: display label and the parameter half of
    the cache key (mentions every axis; the iterate suffix appears only
    for iterating jobs, so pre-axis cache keys stay valid). *)
val job_key : job -> string

(** Total order over the full parameter tuple (latency numerically,
    then policy, library, balance, recipe): the stable sort key that
    makes sweep reports reproducible across round structures and worker
    counts. *)
val compare_job : job -> job -> int

(** Latency-axis specifications: ["4"], ["2:6"], ["2:10:2"], ["3,5,7"]. *)
val parse_latencies : string -> (int list, string) result

val pp : Format.formatter -> t -> unit
