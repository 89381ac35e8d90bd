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
(* Printing: straight into one Buffer.                                 *)

let hex_digits = "0123456789abcdef"

(* [s] quoted and escaped; runs of bytes that need no escape are copied
   whole. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go from i =
    if i >= n then Buffer.add_substring buf s from (i - from)
    else
      let c = String.unsafe_get s i in
      if c <> '"' && c <> '\\' && Char.code c >= 0x20 then go from (i + 1)
      else begin
        Buffer.add_substring buf s from (i - from);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digits.[Char.code c lsr 4];
            Buffer.add_char buf hex_digits.[Char.code c land 15]);
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

(* What [Printf.sprintf "%.17g"] ends in, without the format
   interpretation around it. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null" (* NaN has no JSON spelling *)
  else if f = Float.infinity then Buffer.add_string buf "1e999"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e999"
  else begin
    let s = format_float "%.17g" f in
    Buffer.add_string buf s;
    (* "%.17g" may print an integral double as "3"; that is still a valid
       JSON number and parses back as the same float via Float below, but
       only if we keep the value tagged: add ".0" so re-parsing yields a
       Float, keeping cache round-trips type-stable. *)
    if not (String.contains s '.' || String.contains s 'e') then
      Buffer.add_string buf ".0"
  end

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  let pad n =
    if indent then
      for _ = 1 to n do
        Buffer.add_string buf "  "
      done
  in
  let nl () = if indent then Buffer.add_char buf '\n' in
  (* Items after the first: a comma, a line break and the indent. *)
  let sep depth =
    Buffer.add_char buf ',';
    nl ();
    pad depth
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Hls_util.Decimal.add_int buf i
    | Float f -> add_float buf f
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List (item :: items) ->
        Buffer.add_char buf '[';
        nl ();
        pad (depth + 1);
        go (depth + 1) item;
        List.iter
          (fun item ->
            sep (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj (field :: fields) ->
        let add (k, item) =
          add_escaped buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          go (depth + 1) item
        in
        Buffer.add_char buf '{';
        nl ();
        pad (depth + 1);
        add field;
        List.iter
          (fun field ->
            sep (depth + 1);
            add field)
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

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let of_string src =
  let pos = ref 0 in
  let len = String.length src in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < len && String.unsafe_get src !pos = c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match String.unsafe_get src !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
    do
      advance ()
    done
  in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected '%c'" c) in
  let literal word value =
    let w = String.length word in
    let rec same i =
      i >= w
      || String.unsafe_get src (!pos + i) = String.unsafe_get word i
         && same (i + 1)
    in
    if !pos + w <= len && same 0 then (pos := !pos + w; value)
    else fail ("expected " ^ word)
  in
  (* The first quote or backslash at or after [i], or [len]. *)
  let rec plain_end i =
    if i < len
       && (let c = String.unsafe_get src i in
           c <> '"' && c <> '\\')
    then plain_end (i + 1)
    else i
  in
  (* Four hex digits at [pos], strictly: [int_of_string] would also
     take '_' among them. *)
  let hex4 () =
    let rec go i acc =
      if i = 4 then acc
      else
        let d = hex_value (String.unsafe_get src (!pos + i)) in
        if d < 0 then fail "bad \\u escape" else go (i + 1) ((acc lsl 4) lor d)
    in
    go 0 0
  in
  let escaped buf =
    let rec go () =
      let i = plain_end !pos in
      Buffer.add_substring buf src !pos (i - !pos);
      pos := i;
      if i >= len then fail "unterminated string"
      else if String.unsafe_get src i = '"' then advance ()
      else begin
        advance ();
        (if !pos >= len then fail "unterminated escape"
         else
           match String.unsafe_get src !pos with
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
               let code = hex4 () in
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
      end
    in
    go ()
  in
  (* A string without escapes is one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = plain_end start in
    if i < len && String.unsafe_get src i = '"' then begin
      pos := i + 1;
      String.sub src start (i - start)
    end
    else begin
      let buf = Buffer.create (i - start + 16) in
      escaped buf;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char (String.unsafe_get src !pos) do
      advance ()
    done;
    let stop = !pos in
    let neg = stop > start && String.unsafe_get src start = '-' in
    let first = if neg then start + 1 else start in
    (* An optional '-' and at most 18 digits cannot overflow: read it
       in place. *)
    let rec digits i acc =
      if i = stop then acc
      else
        match String.unsafe_get src i with
        | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
        | _ -> -1
    in
    let v =
      if stop - first >= 1 && stop - first <= 18 then digits first 0 else -1
    in
    if v >= 0 then Int (if neg then -v else v)
    else
      let s = String.sub src start (stop - start) in
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
    if !pos >= len then fail "unexpected end of input";
    match String.unsafe_get src !pos with
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        advance ();
        skip_ws ();
        if at ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            if at ',' then (advance (); items (v :: acc))
            else if at ']' then (advance (); List (List.rev (v :: acc)))
            else fail "expected ',' or ']'"
          in
          items []
    | '{' ->
        advance ();
        skip_ws ();
        if at '}' then (advance (); Obj [])
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
            if at ',' then (advance (); fields (kv :: acc))
            else if at '}' then (advance (); Obj (List.rev (kv :: acc)))
            else fail "expected ',' or '}'"
          in
          fields []
    | _ -> parse_number ()
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
