(** Arbitrary-width bit vectors with bit-true unsigned and two's-complement
    arithmetic.

    This module is the reference-semantics substrate of the reproduction:
    every behavioural transformation (kernel extraction, fragmentation, RTL
    generation) is validated by simulating both sides on [Hls_bitvec.t]
    values and comparing results bit by bit.

    Bit 0 is the least significant bit.  All operations are total over their
    stated widths; width mismatches raise [Invalid_argument]. *)

(** Word-packed (63-bits-per-word) index sets for the left-edge register
    allocator — see {!Wordset}. *)
module Wordset : module type of Wordset

type t

(** {1 Construction} *)

(** [zero w] is the all-zeros vector of width [w] (w >= 1). *)
val zero : int -> t

(** [ones w] is the all-ones vector of width [w]. *)
val ones : int -> t

(** [of_int ~width v] truncates the two's-complement representation of [v]
    to [width] bits. *)
val of_int : width:int -> int -> t

(** [of_bits l] builds a vector from a list of bits, least significant
    first. *)
val of_bits : bool list -> t

(** [of_string s] parses a binary string written MSB-first,
    e.g. ["1010"] = 10. Underscores are ignored. *)
val of_string : string -> t

(** [init w f] is the vector whose bit [i] is [f i]. *)
val init : int -> (int -> bool) -> t

(** [random ~width prng] draws a uniformly random vector. *)
val random : width:int -> Hls_util.Prng.t -> t

(** {1 Observation} *)

val width : t -> int

(** [get t i] is bit [i]; raises [Invalid_argument] out of range. *)
val get : t -> int -> bool

(** Unsigned value; raises [Invalid_argument] if it does not fit in an
    OCaml [int]. *)
val to_int : t -> int

(** Two's-complement signed value; raises [Invalid_argument] if it does not
    fit in an OCaml [int]. *)
val to_signed_int : t -> int

(** Binary rendering, MSB first. *)
val to_string : t -> string

(** [add_to_buffer buf t] appends [t] as [<width>b'<bits>], bits MSB
    first (e.g. [4b'1010]): the form graphs print constants in. *)
val add_to_buffer : Buffer.t -> t -> unit

(** {!add_to_buffer}'s text. *)
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** Lexicographic-by-value unsigned comparison of equal-width vectors. *)
val compare_unsigned : t -> t -> int

(** Two's-complement comparison of equal-width vectors. *)
val compare_signed : t -> t -> int

(** {1 Structure} *)

(** [slice t ~hi ~lo] is bits [lo..hi] inclusive (width [hi-lo+1]). *)
val slice : t -> hi:int -> lo:int -> t

(** [concat ~hi ~lo] places [hi] above [lo]: result width is the sum. *)
val concat : hi:t -> lo:t -> t

(** [zero_extend t ~width] pads with zeros up to [width]
    (no-op if already wider or equal... raises if [width < width t]). *)
val zero_extend : t -> width:int -> t

(** [sign_extend t ~width] replicates the MSB up to [width]. *)
val sign_extend : t -> width:int -> t

(** [truncate t ~width] keeps the low [width] bits. *)
val truncate : t -> width:int -> t

(** {1 Logic} *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** [shift_left t n] shifts towards the MSB, dropping overflowing bits. *)
val shift_left : t -> int -> t

(** [shift_right_logical t n] shifts towards the LSB, filling with zeros. *)
val shift_right_logical : t -> int -> t

(** {1 Arithmetic}

    All arithmetic results carry explicit widths; the caller decides
    truncation/extension, mirroring hardware datapaths. *)

(** [add_full ~carry_in a b] adds equal-width vectors; the result is one bit
    wider (the MSB is the carry out). *)
val add_full : ?carry_in:bool -> t -> t -> t

(** [add a b] is modular addition at the operands' common width. *)
val add : t -> t -> t

(** [sub a b] is modular subtraction at the common width. *)
val sub : t -> t -> t

(** Two's-complement negation at the same width. *)
val neg : t -> t

(** [mul a b] is the full [width a + width b]-bit unsigned product. *)
val mul : t -> t -> t

(** [mul_signed a b] is the full-width two's-complement product. *)
val mul_signed : t -> t -> t

(** Unsigned [a < b]. *)
val lt_unsigned : t -> t -> bool

(** Signed [a < b]. *)
val lt_signed : t -> t -> bool

(** {1 Bit-serial evaluation}

    [ripple_add] exposes the carry chain explicitly; the fragmentation tests
    use it to model per-cycle partial sums with stored carries, exactly as
    the transformed specifications do. *)

(** [ripple_add ~carry_in a b] returns the sum bits (same width) and the
    carry out. *)
val ripple_add : carry_in:bool -> t -> t -> t * bool
