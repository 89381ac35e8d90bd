(** Bidirectional JSON codecs: one value describes a wire record, and its
    encoder, its decoder and a random generator of its values are all
    read off it, so they cannot drift apart.

    {[
      let stats =
        Codec.(obj (fun name ops -> { name; ops })
               |> req "name" string (fun s -> s.name)
               |> dft "ops" int ~default:0 (fun s -> s.ops)
               |> finish)
    ]}

    Fields encode and decode in declaration order; the first bad field
    gives the error, which names it (["latency" must be an integer],
    [bad element in "policies"], [params without a "spec" field]).
    Unknown keys are ignored, and a non-object decodes like [{}].

    {!gen} draws a value the codec carries, for round-trip fuzzing.
    Scalars draw small values: integers below 100, floats in quarters
    below 100 (short exact decimals), booleans, and identifiers of one to
    eight characters from [a-z0-9_-]; an enum draws one of its values;
    lists and maps draw zero to three elements; an option is [None] or
    [Some] with even odds.  An object draws its fields in declaration
    order and hands them to its constructor, so a constructor that drops
    a field also drops it from every draw: round trips of drawn values
    cannot catch that, only a comparison with an independently written
    value can.  A variant picks a case uniformly.  A legacy [alias] is
    never drawn.  The same seed draws the same values. *)

type 'a t

val encode : 'a t -> 'a -> Dse_json.t
val decode : 'a t -> Dse_json.t -> ('a, string) result
val gen : 'a t -> Hls_util.Prng.t -> 'a

val int : int t

(** Also decodes an integer. *)
val float : float t

val bool : bool t
val string : string t
val list : 'a t -> 'a list t

(** [enum ~expected name values]: each of [values] by its [name];
    [expected] completes ["<field> must be <expected>"]. *)
val enum : expected:string -> ('a -> string) -> 'a list -> 'a t

(** A string-keyed map, as an object. *)
val assoc : 'a t -> (string * 'a) list t

(** [map dec enc c] carries [c]'s wire shape over to another type. *)
val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

(** {1 Objects} *)

(** An object of type ['o] under construction; ['k] is the rest of its
    constructor. *)
type ('o, 'k) obj

val obj : 'k -> ('o, 'k) obj
val req : string -> 'a t -> ('o -> 'a) -> ('o, 'a -> 'k) obj -> ('o, 'k) obj

(** Absent decodes to [default]; always encoded.  [label] replaces the
    quoted key in errors; [alias] is a legacy key, read with its own
    codec when the key is absent and never written. *)
val dft :
  ?label:string -> ?alias:string * 'a t -> string -> 'a t -> default:'a ->
  ('o -> 'a) -> ('o, 'a -> 'k) obj -> ('o, 'k) obj

(** Left out when [None]; absent or [null] decodes to [None]. *)
val opt :
  string -> 'a t -> ('o -> 'a option) -> ('o, 'a option -> 'k) obj ->
  ('o, 'k) obj

(** Written [null] when [None]; absent or [null] decodes to [None]. *)
val nullable :
  string -> 'a t -> ('o -> 'a option) -> ('o, 'a option -> 'k) obj ->
  ('o, 'k) obj

(** [what] names the object when a required field is missing (default
    ["object"]). *)
val finish : ?what:string -> ('o, 'o) obj -> 'o t

(** The fields an object codec writes for a value. *)
val fields : 'a t -> 'a -> (string * Dse_json.t) list

(** {1 Variants} *)

(** A constructor: wire name, payload codec, injection and projection. *)
type 'a case

val case : string -> 'p t -> ('p -> 'a) -> ('a -> 'p option) -> 'a case

(** A case whose payload object decodes straight into the variant: the
    object's constructor is the injection.  [what] as in {!finish}. *)
val obj_case :
  ?what:string -> string -> ('a -> 'p option) -> ('p, 'a) obj -> 'a case

(** A case table used with the name kept outside the payload (the
    request envelope's ["method"] beside ["params"]). *)
val case_name : 'a case list -> 'a -> string
val gen_case : 'a case list -> Hls_util.Prng.t -> 'a
val encode_case : 'a case list -> 'a -> string * Dse_json.t

(** [None] when no case has the name. *)
val decode_case :
  'a case list -> string -> Dse_json.t -> ('a, string) result option

(** Object payloads tagged by a field: [{"kind": name, ...payload}]. *)
val tagged : string -> 'a case list -> 'a t

(** Payloads selected by which key is present: [{name: payload}];
    decoding wants exactly one key whose payload decodes.  [what] names
    the value in errors. *)
val keyed : what:string -> 'a case list -> 'a t

(** The one wire encoding of {!Hls_util.Failure.t}, shared by sweep
    documents and api errors: a ["class"] tag plus ["message"]
    (["seconds"] for a timeout).  An internal fault decodes to
    {!Hls_util.Failure.Remote}, whose printer gives its text back. *)
val failure : Hls_util.Failure.t t
