(* The fuzzer's codec lane: random v1 requests and responses pushed
   through their wire codecs and back, byte-exactly.

   Each case draws a random envelope or response, prints it, re-parses
   the line and prints again: the two strings must be identical, and the
   decoded value equal to the drawn one.  That proves the decoder accepts
   everything the encoder emits, that re-encoding is canonical (which is
   what lets the serving tier forward lines verbatim), and that no getter
   loses a field on the way.

   Requests and payloads are drawn from the wire descriptors themselves
   (Codec.gen), so every verb and payload kind is covered as soon as it
   is in its table.  A constructor that drops a field drops it from the
   draw too; the two-way goldens in test/test_api.ml and test/test_dse.ml
   catch that against hand-written values.

   The check lives here rather than in [lib/fuzz] so the dependency
   points the right way: the driver takes the case as an injected
   closure ([Driver.config.codec_case]) and never links against the
   api. *)

module J = Hls_dse.Dse_json
module C = Hls_dse.Codec
module Prng = Hls_util.Prng

(* The error object is not a descriptor, so its draw is written here; a
   flow failure comes from its descriptor. *)
let random_error p =
  match Prng.int p 5 with
  | 0 -> Response.Usage (C.gen C.string p)
  | 1 -> Response.Unsupported_version (C.gen C.int p)
  | 2 ->
      let queued = C.gen C.int p in
      let capacity = C.gen C.int p in
      Response.Overloaded { queued; capacity }
  | 3 -> Response.Unavailable (C.gen C.string p)
  | _ -> Response.Failed (C.gen C.failure p)

type draw = Req of Request.envelope | Resp of Response.t

let draw p =
  if Prng.bool p then Req (Request.gen_envelope p)
  else
    let id = if Prng.bool p then Some (C.gen C.string p) else None in
    let result =
      if Prng.int p 4 = 0 then Error (random_error p)
      else Ok (Response.gen_payload p)
    in
    Resp { Response.id; result }

(* ------------------------------------------------------------------ *)
(* The round trips.                                                    *)

let mismatch what first second =
  Error (Printf.sprintf "%s round trip not byte-exact:\n  %s\nvs\n  %s" what
           first second)

let lossy what line =
  Error (Printf.sprintf "%s decoded to a different value: %s" what line)

let request_line (e : Request.envelope) =
  J.to_string
    (Request.to_json ?id:e.env_id ?deadline_ms:e.env_deadline_ms e.env_req)

let request_trip e =
  let line = request_line e in
  match Request.envelope_of_string line with
  | Error (`Usage m) ->
      Error (Printf.sprintf "request rejected by the decoder (%s): %s" m line)
  | Error (`Unsupported_version n) ->
      Error (Printf.sprintf "request decoded as version %d: %s" n line)
  | Ok e' ->
      let line' = request_line e' in
      if not (String.equal line line') then mismatch "request" line line'
      else if e' <> e then lossy "request" line
      else Ok ()

let response_trip r =
  let line = Response.to_string r in
  match Response.of_string line with
  | Error m ->
      Error (Printf.sprintf "response rejected by the decoder (%s): %s" m line)
  | Ok r' ->
      let line' = Response.to_string r' in
      if not (String.equal line line') then mismatch "response" line line'
      else if r' <> r then lossy "response" line
      else Ok ()

let trip = function Req e -> request_trip e | Resp r -> response_trip r
let case p = trip (draw p)
