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

(* The permutation [src] reordered stably by [key], ascending.  Keys
   here are cycles and bit widths, so they usually span few values: one
   counting pass then, a stable comparison sort when they span more than
   [Array.length src + 1024] (the span is computed without overflow:
   far-apart ints wrap to a negative one). *)
let stable_order key src =
  let n = Array.length src in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun i ->
      let k = key i in
      if k < !lo then lo := k;
      if k > !hi then hi := k)
    src;
  let lo = !lo and span = !hi - !lo in
  if n = 0 || span < 0 || span > n + 1024 then begin
    let dst = Array.copy src in
    Array.stable_sort (fun a b -> Int.compare (key a) (key b)) dst;
    dst
  end
  else begin
    let start = Array.make (span + 2) 0 in
    Array.iter
      (fun i -> start.(key i - lo + 1) <- start.(key i - lo + 1) + 1)
      src;
    for k = 1 to span + 1 do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let dst = Array.make n 0 in
    Array.iter
      (fun i ->
        let k = key i - lo in
        dst.(start.(k)) <- i;
        start.(k) <- start.(k) + 1)
      src;
    dst
  end

(** Left-edge packing of the intervals [0, n) given as flat arrays: sort
    by start (widest first among equal starts), then give each interval
    the first register — lowest index — whose last interval ends before
    it starts, or a new register.  [value i] builds interval [i]'s record;
    it is called once per interval.

    Intervals are placed in ascending start, so once a register's last
    end is below one interval's start it stays below every later start:
    the first fit is the lowest index among the registers freed so far.
    A second order, by end, walks alongside the starts and frees the
    register of each placed interval that ends before the next start —
    still its register's last, since a register is only reused once
    freed; free registers sit in a word-packed set.
    So a placement costs a word scan instead of a scan over every
    register.  Placement touches only ints; the register lists, values
    newest first, are built once at the end. *)
let left_edge_flat ~from ~to_ ~width value =
  let n = Array.length from in
  let ident = Array.init n Fun.id in
  let by_start =
    stable_order
      (fun i -> from.(i))
      (stable_order (fun i -> lnot width.(i)) ident)
  in
  let by_end = stable_order (fun i -> to_.(i)) ident in
  let cap = max 1 n in
  let widths = Array.make cap 0 and reg_of = Array.make cap (-1) in
  let count = ref 0 and ended = ref 0 in
  let free = Hls_bitvec.Wordset.create cap in
  Array.iter
    (fun i ->
      while !ended < n && to_.(by_end.(!ended)) < from.(i) do
        let j = by_end.(!ended) in
        if reg_of.(j) >= 0 then Hls_bitvec.Wordset.add free reg_of.(j);
        incr ended
      done;
      let r = Hls_bitvec.Wordset.next_set free 0 in
      let r =
        if r >= 0 then begin
          Hls_bitvec.Wordset.remove free r;
          widths.(r) <- Int.max widths.(r) width.(i);
          r
        end
        else begin
          let r = !count in
          incr count;
          widths.(r) <- width.(i);
          r
        end
      in
      reg_of.(i) <- r;
      (* An interval ending before it starts frees its register at once
         (the walk by end passed it unplaced). *)
      if to_.(i) < from.(i) then Hls_bitvec.Wordset.add free r)
    by_start;
  (* The placements grouped by register, in placement order within each;
     each register's values are consed oldest first, the registers last
     first. *)
  let by_reg = stable_order (fun i -> reg_of.(i)) by_start in
  let regs = ref [] and hi = ref n in
  while !hi > 0 do
    let r = reg_of.(by_reg.(!hi - 1)) in
    let lo = ref (!hi - 1) in
    while !lo > 0 && reg_of.(by_reg.(!lo - 1)) = r do
      decr lo
    done;
    let values = ref [] in
    for k = !lo to !hi - 1 do
      values := value by_reg.(k) :: !values
    done;
    regs := { reg_width = widths.(r); reg_values = !values } :: !regs;
    hi := !lo
  done;
  !regs

let left_edge intervals =
  let ivs = Array.of_list intervals in
  left_edge_flat
    ~from:(Array.map (fun iv -> iv.iv_from) ivs)
    ~to_:(Array.map (fun iv -> iv.iv_to) ivs)
    ~width:(Array.map (fun iv -> iv.iv_width) ivs)
    (fun i -> ivs.(i))

let total_register_bits regs =
  Hls_util.List_ext.sum_by (fun r -> r.reg_width) regs
