(** Value lifetimes and left-edge register allocation.

    A value produced in cycle [def] and last consumed in cycle [use] must
    sit in a register during cycles [def+1 .. use] (a value consumed only
    in its production cycle is forwarded combinationally and never stored —
    the effect behind the paper's register savings).

    The classic left-edge algorithm packs values with disjoint storage
    intervals into the same physical register; a register's width is the
    widest value it ever holds. *)

type interval = {
  iv_label : string;
  iv_width : int;
  iv_from : int;  (** first cycle the value must be held in *)
  iv_to : int;  (** last cycle the value is read in *)
}

(** [storage_interval ~def ~last_use] is [None] when the value never
    crosses a cycle boundary. *)
let storage_interval ~def ~last_use =
  if last_use <= def then None else Some (def + 1, last_use)

type register = { reg_width : int; reg_values : interval list }

(* Binary min-heap of (key, value) int pairs in preallocated arrays. *)
type heap = { keys : int array; vals : int array; mutable size : int }

let heap cap = { keys = Array.make cap 0; vals = Array.make cap 0; size = 0 }

let heap_push h k v =
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && h.keys.((!i - 1) / 2) > k do
    let p = (!i - 1) / 2 in
    h.keys.(!i) <- h.keys.(p);
    h.vals.(!i) <- h.vals.(p);
    i := p
  done;
  h.keys.(!i) <- k;
  h.vals.(!i) <- v

(* Remove the minimum-key entry and return its value. *)
let heap_pop h =
  let top = h.vals.(0) in
  h.size <- h.size - 1;
  let n = h.size in
  let k = h.keys.(n) and v = h.vals.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c = if l + 1 < n && h.keys.(l + 1) < h.keys.(l) then l + 1 else l in
      if h.keys.(c) < k then begin
        h.keys.(!i) <- h.keys.(c);
        h.vals.(!i) <- h.vals.(c);
        i := c
      end
      else sifting := false
    end
  done;
  h.keys.(!i) <- k;
  h.vals.(!i) <- v;
  top

(** Left-edge packing: sort by start (widest first among equal starts),
    then give each interval the first register — lowest index — whose
    last interval ends before it starts, or a new register.

    Intervals arrive in ascending [iv_from], so once a register's last end
    is below one interval's start it stays below every later start: the
    first fit is the lowest index among the registers freed so far.
    Occupied registers wait in a min-heap on their last end and move to a
    word-packed set of free indices as starts pass them, so a placement
    costs a heap step and a word scan instead of a scan over every
    register.  A register's values are kept newest first. *)
let left_edge intervals =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.iv_from b.iv_from with
        | 0 -> compare b.iv_width a.iv_width
        | c -> c)
      intervals
  in
  let cap = max 1 (List.length sorted) in
  let widths = Array.make cap 0 in
  let values = Array.make cap [] in
  let count = ref 0 in
  let busy = heap cap (* key: last end, value: register *) in
  let free = Hls_bitvec.Wordset.create cap in
  List.iter
    (fun iv ->
      while busy.size > 0 && busy.keys.(0) < iv.iv_from do
        Hls_bitvec.Wordset.add free (heap_pop busy)
      done;
      let r =
        let r = Hls_bitvec.Wordset.next_set free 0 in
        if r >= 0 then begin
          Hls_bitvec.Wordset.remove free r;
          widths.(r) <- max widths.(r) iv.iv_width;
          r
        end
        else begin
          let r = !count in
          incr count;
          widths.(r) <- iv.iv_width;
          r
        end
      in
      values.(r) <- iv :: values.(r);
      heap_push busy iv.iv_to r)
    sorted;
  List.init !count (fun i ->
      { reg_width = widths.(i); reg_values = values.(i) })

let total_register_bits regs =
  Hls_util.List_ext.sum_by (fun r -> r.reg_width) regs
