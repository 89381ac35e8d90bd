(** Word-packed index sets: 63 members per OCaml int word.

    Dense membership sets over [0, len), built for the left-edge register
    allocator: [next_set] / [next_unset] skip whole empty or full words
    one load at a time, so finding the next free or unsettled index costs
    one word scan instead of a per-bit test.  Mutable and
    unsynchronized — confine a set to one domain. *)

type t

(** Members per word (63: an OCaml int minus the tag bit). *)
val bits_per_word : int

(** [create len] is the empty set over [0, len). *)
val create : int -> t

val length : t -> int

(** Number of backing words ([ceil (len / 63)]). *)
val words : t -> int

(** Index operations raise [Invalid_argument] outside [0, len). *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

(** Remove every member. *)
val clear : t -> unit

(** Add every index in [0, len). *)
val fill : t -> unit

val is_empty : t -> bool

(** Number of members. *)
val count : t -> int

(** [next_set t i] is the smallest member >= [i], or [-1]; empty words
    are skipped whole.  Words examined by the scan:
    [found / 63 - i / 63 + 1]. *)
val next_set : t -> int -> int

(** [next_unset t i] is the smallest non-member >= [i] (within [len]),
    or [-1]; full words are skipped whole. *)
val next_unset : t -> int -> int

(** Iterate the members in increasing order. *)
val iter : (int -> unit) -> t -> unit

val to_list : t -> int list
