(* Bidirectional JSON codecs: a record's wire shape is written once, as a
   value, and both directions are read off it.

   Decoders report structured errors so a field can phrase them with its
   own name: a scalar says what it expected ("an integer"), a list that a
   scalar element failed, and the enclosing field turns that into the
   final text ("\"latency\" must be an integer", "bad element in
   \"policies\"").  A nested object's error is already final. *)

module J = Dse_json

type error =
  | Expected of string  (** completes "<field> must be ..." *)
  | Bad_element  (** a list element failed with [Expected] *)
  | Message of string  (** final text *)

type 'a t = { enc : 'a -> J.t; dec : J.t -> ('a, error) result }

let render = function
  | Expected what -> "expected " ^ what
  | Bad_element -> "bad list element"
  | Message m -> m

let encode c v = c.enc v
let decode c j = Result.map_error render (c.dec j)
let fail fmt = Printf.ksprintf (fun m -> Error (Message m)) fmt
let quote = Printf.sprintf "%S"

(* The final text of an error raised under the field [label]. *)
let in_field label = function
  | Expected what -> Message (Printf.sprintf "%s must be %s" label what)
  | Bad_element -> Message ("bad element in " ^ label)
  | Message _ as e -> e

let decode_in label c j =
  match c.dec j with Ok _ as ok -> ok | Error e -> Error (in_field label e)

(* Decode every element, stopping at the first error. *)
let all dec items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match dec x with Ok v -> go (v :: acc) rest | Error e -> Error e)
  in
  go [] items

let scalar what enc dec =
  let expected = Error (Expected what) in
  { enc; dec = (fun j -> match dec j with Some v -> Ok v | None -> expected) }

let int = scalar "an integer" (fun i -> J.Int i) J.to_int
let float = scalar "a number" (fun f -> J.Float f) J.to_float
let bool = scalar "a boolean" (fun b -> J.Bool b) J.to_bool
let string = scalar "a string" (fun s -> J.String s) J.to_str

let enum ~expected name of_name =
  scalar expected
    (fun v -> J.String (name v))
    (fun j -> Option.bind (J.to_str j) of_name)

let list c =
  let elt x =
    match c.dec x with Error (Expected _) -> Error Bad_element | r -> r
  in
  {
    enc = (fun l -> J.List (List.map c.enc l));
    dec =
      (function
      | J.List items -> all elt items | _ -> Error (Expected "an array"));
  }

let assoc c =
  let entry (k, x) = Result.map (fun v -> (k, v)) (decode_in (quote k) c x) in
  {
    enc = (fun kvs -> J.Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs));
    dec =
      (function
      | J.Obj fields -> all entry fields | _ -> Error (Expected "an object"));
  }

let map f g c =
  { enc = (fun v -> c.enc (g v)); dec = (fun j -> Result.map f (c.dec j)) }

(* ------------------------------------------------------------------ *)
(* Objects.  [enc_fields] puts the fields so far in front of the ones a
   later field has already encoded; [dec_fields] applies the constructor
   to the fields so far, in declaration order, [what] naming the object
   for the missing-field error.                                         *)

type ('o, 'k) obj = {
  enc_fields : 'o -> (string * J.t) list -> (string * J.t) list;
  dec_fields : string -> J.t -> ('k, error) result;
}

let obj k = { enc_fields = (fun _ rest -> rest); dec_fields = (fun _ _ -> Ok k) }

(* One more field: [emit] encodes it (or not), [read] decodes it from the
   enclosing object. *)
let field emit read o =
  {
    enc_fields = (fun v rest -> o.enc_fields v (emit v rest));
    dec_fields =
      (fun what j ->
        match o.dec_fields what j with
        | Error e -> Error e
        | Ok k -> (
            match read what j with Ok a -> Ok (k a) | Error e -> Error e));
  }

(* Labels are quoted once, when the descriptor is built. *)
let req name c get =
  let label = quote name in
  field
    (fun v rest -> (name, c.enc (get v)) :: rest)
    (fun what j ->
      match J.member name j with
      | Some x -> decode_in label c x
      | None -> fail "%s without a %s field" what label)

let dft ?label ?alias name c ~default get =
  let label = Option.value label ~default:(quote name) in
  let alias = Option.map (fun (old, c') -> (old, quote old, c')) alias in
  field
    (fun v rest -> (name, c.enc (get v)) :: rest)
    (fun _ j ->
      match (J.member name j, alias) with
      | Some x, _ -> decode_in label c x
      | None, Some (old, old_label, c') -> (
          match J.member old j with
          | Some x -> decode_in old_label c' x
          | None -> Ok default)
      | None, None -> Ok default)

let optional name c =
  let label = quote name in
  fun _ j ->
    match J.member name j with
    | None | Some J.Null -> Ok None
    | Some x -> Result.map Option.some (decode_in label c x)

let opt name c get =
  field
    (fun v rest ->
      match get v with None -> rest | Some a -> (name, c.enc a) :: rest)
    (optional name c)

let nullable name c get =
  field
    (fun v rest ->
      (name, match get v with None -> J.Null | Some a -> c.enc a) :: rest)
    (optional name c)

let enc_obj o v = J.Obj (o.enc_fields v [])
let finish ?(what = "object") o = { enc = enc_obj o; dec = o.dec_fields what }

let fields c v =
  match c.enc v with
  | J.Obj fs -> fs
  | _ -> invalid_arg "Codec.fields: not an object codec"

(* ------------------------------------------------------------------ *)
(* Variants.  A case keeps its decoder already composed with the
   injection, so an object case can decode straight into the variant.  *)

type 'a case =
  | Case : {
      name : string;
      enc : 'p -> J.t;
      dec : J.t -> ('a, error) result;
      proj : 'a -> 'p option;
    }
      -> 'a case

let case name c inj proj =
  Case { name; enc = c.enc; dec = (fun j -> Result.map inj (c.dec j)); proj }

let obj_case ?(what = "object") name proj o =
  Case { name; enc = enc_obj o; dec = o.dec_fields what; proj }

let encode_case cases v =
  match
    List.find_map
      (fun (Case c) -> Option.map (fun p -> (c.name, c.enc p)) (c.proj v))
      cases
  with
  | Some named -> named
  | None -> invalid_arg "Codec.encode_case: value outside every case"

let case_name cases v =
  match List.find_opt (fun (Case c) -> Option.is_some (c.proj v)) cases with
  | Some (Case c) -> c.name
  | None -> invalid_arg "Codec.case_name: value outside every case"

let find_case cases name j =
  List.find_map
    (fun (Case c) -> if c.name = name then Some (c.dec j) else None)
    cases

let decode_case cases name j =
  Option.map (Result.map_error render) (find_case cases name j)

let tagged tag cases =
  {
    enc =
      (fun v ->
        match encode_case cases v with
        | name, J.Obj fs -> J.Obj ((tag, J.String name) :: fs)
        | _ -> invalid_arg "Codec.tagged: payload is not an object");
    dec =
      (fun j ->
        match Option.map J.to_str (J.member tag j) with
        | None -> fail "object without a %S field" tag
        | Some None -> Error (in_field (quote tag) (Expected "a string"))
        | Some (Some name) -> (
            match find_case cases name j with
            | Some r -> r
            | None -> fail "unknown %s %S" tag name));
  }

let keyed ~what cases =
  let names = List.map (fun (Case c) -> quote c.name) cases in
  let present j =
    List.filter_map
      (fun (Case c) ->
        Option.bind (J.member c.name j) (fun x -> Result.to_option (c.dec x)))
      cases
  in
  {
    enc = (fun v -> J.Obj [ encode_case cases v ]);
    dec =
      (fun j ->
        match (present j, List.rev names) with
        | [ v ], _ -> Ok v
        | [], last :: (_ :: _ as rest) ->
            fail "%s needs exactly one of %s or %s" what
              (String.concat ", " (List.rev rest))
              last
        | [], _ -> fail "%s needs exactly one of %s" what (List.hd names)
        | _ ->
            fail "%s has more than one of %s" what (String.concat ", " names));
  }

(* ------------------------------------------------------------------ *)
(* The failure taxonomy: a "class" tag plus its payload.  An internal
   fault crosses as its printed text, and [Remote]'s printer gives that
   text back, so re-encoding is lossless.                               *)

let failure =
  let module F = Hls_util.Failure in
  let case name proj o = obj_case ~what:"failure" name proj o in
  let message inj = obj inj |> req "message" string Fun.id in
  tagged "class"
    [
      case "infeasible"
        (function F.Infeasible m -> Some m | _ -> None)
        (message (fun m -> F.Infeasible m));
      case "timeout"
        (function F.Timeout s -> Some s | _ -> None)
        (obj (fun s -> F.Timeout s) |> req "seconds" float Fun.id);
      case "resource"
        (function F.Resource m -> Some m | _ -> None)
        (message (fun m -> F.Resource m));
      case "internal"
        (function F.Internal e -> Some (Printexc.to_string e) | _ -> None)
        (message (fun m -> F.Internal (F.Remote m)));
    ]
