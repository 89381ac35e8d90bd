(** The fuzzer's codec lane: random v1 requests and responses
    round-tripped byte-exactly through the wire codecs.

    Envelopes and payloads are drawn from the wire descriptors
    ({!Request.gen_envelope}, {!Response.gen_payload}); only the error
    object, which is not a descriptor, has a hand-written draw.

    Injected into {!Hls_fuzz.Driver} as its [codec_case] so the fuzz
    library never links against the api. *)

(** One drawn value: a request envelope or a whole response. *)
type draw = Req of Request.envelope | Resp of Response.t

val draw : Hls_util.Prng.t -> draw

(** Print, re-parse and print again; [Error] describes any byte
    difference, a rejected line, or a decoded value that differs from the
    drawn one. *)
val trip : draw -> (unit, string) result

(** [trip (draw p)]: one case of the lane. *)
val case : Hls_util.Prng.t -> (unit, string) result
