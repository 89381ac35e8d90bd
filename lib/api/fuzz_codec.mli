(** The fuzzer's codec lane: random v1 requests and responses
    round-tripped byte-exactly through the wire codecs.

    Injected into {!Hls_fuzz.Driver} as its [codec_case] so the fuzz
    library never links against the api. *)

val random_request : Hls_util.Prng.t -> Request.t
(** A structurally random request — not necessarily executable (specs
    and names are arbitrary strings), but every value the codec can
    carry. *)

val case : Hls_util.Prng.t -> (unit, string) result
(** One codec round trip: draw a random envelope or response, print it,
    re-parse and print again; [Error] describes any byte difference, or a
    decoded value that differs from the drawn one. *)
