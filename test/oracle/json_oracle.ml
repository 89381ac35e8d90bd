(** The JSON codec as it was before the buffer-speed rewrite of
    [Hls_dse.Dse_json], kept verbatim as an oracle: a fresh [Buffer] per
    escaped string, [Printf "%.17g"] per float, an [option] per peek and
    a [Buffer] per parsed string.

    The test suite checks [Dse_json]'s output, parse results and error
    texts against it ([\u] escapes with ['_'] among their digits, which
    this parser accepts through [int_of_string], are the one difference);
    [bench timing] prices [Dse_json] against it on wire lines. *)

(* Minimal JSON values: enough for the on-disk sweep cache and the
   `hlsopt explore --json` output.  No external dependency: the toolchain
   here has no yojson, and the subset we need (objects, arrays, strings,
   ints, round-tripping floats) is small.

   Floats are printed with "%.17g", which round-trips every finite IEEE
   double exactly — cache re-loads must reproduce the original metrics to
   the bit, since frontier points are compared byte-for-byte against
   freshly computed ones. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_repr f =
  if Float.is_nan f then "null" (* NaN has no JSON spelling *)
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.17g" f in
    (* "%.17g" may print an integral double as "3"; that is still a valid
       JSON number and parses back as the same float via Float below, but
       only if we keep the value tagged: add ".0" so re-parsing yields a
       Float, keeping cache round-trips type-stable. *)
    if String.contains s '.' || String.contains s 'e'
       || String.contains s 'n' (* nan/inf never reach here *)
    then s
    else s ^ ".0"

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then (Buffer.add_char buf ','; nl ());
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then (Buffer.add_char buf ','; nl ());
            pad (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if indent then ": " else ":");
            go (depth + 1) item)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over the string.                   *)

exception Parse_error of string

let of_string src =
  let pos = ref 0 in
  let len = String.length src in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some src.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub src !pos (String.length word) = word
    then (pos := !pos + String.length word; value)
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string"
      else
        match src.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match src.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > len then fail "truncated \\u escape";
                   let hex = String.sub src !pos 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* UTF-8 encode the code point (BMP only). *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char src.[!pos] do advance () done;
    let s = String.sub src start (!pos - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail ("bad number " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail ("bad number " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields (kv :: acc)
            | Some '}' -> advance (); Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
