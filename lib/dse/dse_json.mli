(** Minimal JSON values for the sweep cache and the [--json] output.

    Floats print with ["%.17g"], which round-trips every finite double
    exactly — required for the cache to reproduce metrics bit-for-bit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
val of_string : string -> (t, string) result

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
