(* Word-packed index sets: 63 members per OCaml int word.

   {!Hls_bitvec} proper is the reference-semantics substrate — a bit per
   array cell, optimized for clarity.  This module is the opposite end:
   dense membership sets over [0, len) packed 63 to a word, built for
   scans whose interesting operation is "find the next (un)set index" —
   the free-register search of the left-edge allocator in [lib/alloc] —
   which skips over full or empty words one load at a time instead of
   testing bit by bit. *)

let bits_per_word = 63

type t = {
  len : int;
  words : int array;  (** bit [i] lives at [words.(i / 63)], bit [i mod 63] *)
}

let n_words len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Wordset.create: negative length";
  { len; words = Array.make (n_words len) 0 }

let length t = t.len
let words t = Array.length t.words

(* All-ones pattern for a full word; the last word of a set whose length
   is not a multiple of 63 uses a truncated mask so [next_unset] never
   reports a phantom member past [len]. *)
let full_word = (1 lsl bits_per_word) - 1

let last_word_mask len =
  let r = len mod bits_per_word in
  if r = 0 then full_word else (1 lsl r) - 1

let check t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Wordset.%s: index %d out of [0, %d)" op i t.len)

let mem t i =
  check t i "mem";
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i "add";
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i "remove";
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  let nw = Array.length t.words in
  if nw > 0 then begin
    Array.fill t.words 0 nw full_word;
    t.words.(nw - 1) <- last_word_mask t.len
  end

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* Index of the lowest set bit of a non-zero word: isolate it, then
   halve the search range six times. *)
let lowest_bit w =
  let w = ref (w land -w) and n = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

(* [next_set t i] / [next_unset t i]: smallest member (resp. non-member)
   index >= [i], or [-1] when none remains.  Both first mask off the bits
   below [i] in the word holding it, then skip whole empty (resp. full)
   words — the word-at-a-time scan the allocator relies on.  The
   triple [(found, words_examined)] accounting lives with the caller:
   examined words = [found / 63 - i / 63 + 1]. *)
let next_set t i =
  if i >= t.len then -1
  else begin
    if i < 0 then invalid_arg "Wordset.next_set: negative index";
    let nw = Array.length t.words in
    let w0 = i / bits_per_word in
    let masked = t.words.(w0) land lnot ((1 lsl (i mod bits_per_word)) - 1) in
    if masked <> 0 then (w0 * bits_per_word) + lowest_bit masked
    else begin
      let w = ref (w0 + 1) in
      while !w < nw && t.words.(!w) = 0 do incr w done;
      if !w >= nw then -1
      else (!w * bits_per_word) + lowest_bit t.words.(!w)
    end
  end

let next_unset t i =
  if i >= t.len then -1
  else begin
    if i < 0 then invalid_arg "Wordset.next_unset: negative index";
    let nw = Array.length t.words in
    let word_mask w = if w = nw - 1 then last_word_mask t.len else full_word in
    let w0 = i / bits_per_word in
    let masked =
      (lnot t.words.(w0) land word_mask w0)
      land lnot ((1 lsl (i mod bits_per_word)) - 1)
    in
    if masked <> 0 then
      let j = (w0 * bits_per_word) + lowest_bit masked in
      if j < t.len then j else -1
    else begin
      let w = ref (w0 + 1) in
      while !w < nw && t.words.(!w) = word_mask !w do incr w done;
      if !w >= nw then -1
      else
        let j = (!w * bits_per_word) + lowest_bit (lnot t.words.(!w) land word_mask !w) in
        if j < t.len then j else -1
    end
  end

(* Iterate the members in increasing order, skipping empty words. *)
let iter f t =
  let i = ref (next_set t 0) in
  while !i >= 0 do
    f !i;
    i := if !i + 1 >= t.len then -1 else next_set t (!i + 1)
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
