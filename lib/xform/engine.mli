(** The pass manager and verification gate: run a {!Recipe} over a
    graph, one telemetry-spanned pass application at a time, gating each
    application by {!Hls_check.equivalent} under a {!Verify.policy}.

    Under [Every_pass] a mismatching rewrite is rolled back (the recipe
    continues from the pre-pass graph) and surfaced in its log entry as
    a typed {!Hls_util.Failure} carrying {!Rejected}; under [Sampled]
    one end-to-end check runs after the last pass and a mismatch rolls
    the whole recipe back to the input graph. *)

type entry = {
  e_pass : string;
  e_plan : Plan.t;
  e_fired : bool;  (** the graph actually changed *)
  e_accepted : bool;  (** [false]: rolled back by the verify gate *)
  e_verdict : string option;
      (** rendered {!Hls_check.verdict} when this application was checked *)
  e_failure : Hls_util.Failure.t option;
      (** the typed rejection, when rolled back *)
}

type outcome = {
  graph : Hls_dfg.Graph.t;  (** the transformed (or rolled back) graph *)
  log : entry list;  (** one entry per pass application, in order *)
  checks : int;  (** equivalence checks run *)
  rejected : int;  (** applications rolled back *)
}

(** Carried inside the [Internal] failure of a rejected application. *)
exception Rejected of { pass : string; verdict : string }

(** [apply ?policy ?samples ?seed recipe g].  [samples] (default 40) and
    [seed] (default 9) parameterize each {!Hls_check.equivalent} call;
    checks are exhaustive when the input space fits the checker's budget.
    [repeat(...)] bodies iterate until a whole round leaves the graph
    unchanged, capped at {!max_rounds}. *)
val apply :
  ?policy:Verify.policy -> ?samples:int -> ?seed:int -> Recipe.t ->
  Hls_dfg.Graph.t -> outcome

val max_rounds : int

(** Log entries that fired or were checked (what the CLI prints). *)
val fired_entries : outcome -> entry list

val pp_entry : Format.formatter -> entry -> unit
val pp_log : Format.formatter -> outcome -> unit
