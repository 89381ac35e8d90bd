(** Value lifetimes and left-edge register allocation.

    A value produced in cycle [def] and last consumed in cycle [use] must
    sit in a register during cycles [def+1 .. use]; values consumed only in
    their production cycle are forwarded combinationally and never stored —
    the effect behind the paper's register savings. *)

type interval = {
  iv_label : string;
  iv_width : int;
  iv_from : int;  (** first cycle the value must be held in *)
  iv_to : int;  (** last cycle the value is read in *)
}

(** [None] when the value never crosses a cycle boundary. *)
val storage_interval : def:int -> last_use:int -> (int * int) option

type register = {
  reg_width : int;  (** the widest value the register ever holds *)
  reg_values : interval list;  (** newest first *)
}

(** [stable_order key src]: the permutation [src] reordered stably by
    [key], ascending — a counting sort when the keys span at most
    [Array.length src + 1024] values, a stable comparison sort
    otherwise. *)
val stable_order : (int -> int) -> int array -> int array

(** Left-edge packing: values with disjoint storage intervals share one
    physical register.  Sorted by start, widest first among equal
    starts, list order among equal (start, width) pairs; each value goes
    to the lowest-index register free at its start. *)
val left_edge : interval list -> register list

(** {!left_edge} over intervals [0, n) given as flat arrays of starts,
    ends and widths; [value i] builds interval [i]'s record, once per
    interval, while the register lists are built. *)
val left_edge_flat :
  from:int array -> to_:int array -> width:int array -> (int -> interval) ->
  register list

val total_register_bits : register list -> int
