(* The word-packed (63-bits-per-word) index sets used by the left-edge
   register allocator; re-exported so the library's main module stays the
   single entry point. *)
module Wordset = Wordset

type t = { width : int; bits : bool array }
(* bits.(i) is bit i (LSB first); the array length always equals [width]. *)

let check_width w =
  if w < 1 then invalid_arg "Hls_bitvec: width must be >= 1"

let zero w =
  check_width w;
  { width = w; bits = Array.make w false }

let ones w =
  check_width w;
  { width = w; bits = Array.make w true }

let init w f =
  check_width w;
  { width = w; bits = Array.init w f }

let of_int ~width v =
  check_width width;
  init width (fun i ->
      if i >= Sys.int_size - 1 then v < 0 else (v asr i) land 1 = 1)

let of_bits l =
  match l with
  | [] -> invalid_arg "Hls_bitvec.of_bits: empty list"
  | _ ->
      let a = Array.of_list l in
      { width = Array.length a; bits = a }

let of_string s =
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  if digits = [] then invalid_arg "Hls_bitvec.of_string: empty string";
  let w = List.length digits in
  let bits = Array.make w false in
  List.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> bits.(w - 1 - i) <- true
      | _ -> invalid_arg "Hls_bitvec.of_string: expected only 0/1/_")
    digits;
  { width = w; bits }

let random ~width prng =
  check_width width;
  init width (fun _ -> Hls_util.Prng.bool prng)

let width t = t.width

let get t i =
  if i < 0 || i >= t.width then invalid_arg "Hls_bitvec.get: out of range";
  t.bits.(i)

let to_int t =
  if t.width > Sys.int_size - 1 then
    (* Only reject if a significant high bit is actually set. *)
    for i = Sys.int_size - 1 to t.width - 1 do
      if t.bits.(i) then invalid_arg "Hls_bitvec.to_int: value too wide"
    done;
  let hi = min t.width (Sys.int_size - 1) in
  let v = ref 0 in
  for i = hi - 1 downto 0 do
    v := (!v lsl 1) lor (if t.bits.(i) then 1 else 0)
  done;
  !v

let to_signed_int t =
  if not t.bits.(t.width - 1) then to_int t
  else begin
    if t.width > Sys.int_size - 1 then
      for i = Sys.int_size - 1 to t.width - 1 do
        if not t.bits.(i) then
          invalid_arg "Hls_bitvec.to_signed_int: value too wide"
      done;
    let hi = min t.width (Sys.int_size - 1) in
    (* Sign-extend within the OCaml int. *)
    let v = ref (-1) in
    for i = hi - 1 downto 0 do
      v := (!v lsl 1) lor (if t.bits.(i) then 1 else 0)
    done;
    !v
  end

let to_string t =
  String.init t.width (fun i ->
      if t.bits.(t.width - 1 - i) then '1' else '0')

let add_to_buffer buf t =
  Hls_util.Decimal.add_int buf t.width;
  Buffer.add_string buf "b'";
  for i = t.width - 1 downto 0 do
    Buffer.add_char buf (if Array.unsafe_get t.bits i then '1' else '0')
  done

let pp ppf t =
  let buf = Buffer.create (t.width + 8) in
  add_to_buffer buf t;
  Format.pp_print_string ppf (Buffer.contents buf)

let equal a b = a.width = b.width && a.bits = b.bits

let check_same_width name a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Hls_bitvec.%s: width mismatch %d vs %d"
                   name a.width b.width)

let compare_unsigned a b =
  check_same_width "compare_unsigned" a b;
  let rec go i =
    if i < 0 then 0
    else if a.bits.(i) = b.bits.(i) then go (i - 1)
    else if a.bits.(i) then 1
    else -1
  in
  go (a.width - 1)

let compare_signed a b =
  check_same_width "compare_signed" a b;
  let sa = a.bits.(a.width - 1) and sb = b.bits.(b.width - 1) in
  if sa <> sb then (if sa then -1 else 1) else compare_unsigned a b

let slice t ~hi ~lo =
  if lo < 0 || hi >= t.width || hi < lo then
    invalid_arg "Hls_bitvec.slice: bad range";
  init (hi - lo + 1) (fun i -> t.bits.(lo + i))

let concat ~hi ~lo =
  init (hi.width + lo.width) (fun i ->
      if i < lo.width then lo.bits.(i) else hi.bits.(i - lo.width))

let zero_extend t ~width =
  if width < t.width then
    invalid_arg "Hls_bitvec.zero_extend: narrower target";
  init width (fun i -> i < t.width && t.bits.(i))

let sign_extend t ~width =
  if width < t.width then
    invalid_arg "Hls_bitvec.sign_extend: narrower target";
  let msb = t.bits.(t.width - 1) in
  init width (fun i -> if i < t.width then t.bits.(i) else msb)

let truncate t ~width =
  if width > t.width then invalid_arg "Hls_bitvec.truncate: wider target";
  init width (fun i -> t.bits.(i))

let lognot t = init t.width (fun i -> not t.bits.(i))

let map2 name f a b =
  check_same_width name a b;
  init a.width (fun i -> f a.bits.(i) b.bits.(i))

let logand = map2 "logand" ( && )
let logor = map2 "logor" ( || )
let logxor = map2 "logxor" ( <> )

let shift_left t n =
  if n < 0 then invalid_arg "Hls_bitvec.shift_left: negative shift";
  init t.width (fun i -> i >= n && t.bits.(i - n))

let shift_right_logical t n =
  if n < 0 then invalid_arg "Hls_bitvec.shift_right_logical: negative shift";
  init t.width (fun i -> i + n < t.width && t.bits.(i + n))

let ripple_add ~carry_in a b =
  check_same_width "ripple_add" a b;
  let sum = Array.make a.width false in
  let carry = ref carry_in in
  for i = 0 to a.width - 1 do
    let x = a.bits.(i) and y = b.bits.(i) and c = !carry in
    sum.(i) <- x <> y <> c;
    carry := (x && y) || (x && c) || (y && c)
  done;
  ({ width = a.width; bits = sum }, !carry)

let add_full ?(carry_in = false) a b =
  let sum, cout = ripple_add ~carry_in a b in
  concat ~hi:(of_bits [ cout ]) ~lo:sum

let add a b = fst (ripple_add ~carry_in:false a b)

let neg t =
  fst (ripple_add ~carry_in:true (lognot t) (zero t.width))

let sub a b =
  check_same_width "sub" a b;
  fst (ripple_add ~carry_in:true a (lognot b))

let mul a b =
  let w = a.width + b.width in
  let acc = ref (zero w) in
  let a_ext = zero_extend a ~width:w in
  for i = 0 to b.width - 1 do
    if b.bits.(i) then acc := add !acc (shift_left a_ext i)
  done;
  !acc

let mul_signed a b =
  let w = a.width + b.width in
  let acc = ref (zero w) in
  let a_ext = sign_extend a ~width:w in
  for i = 0 to b.width - 1 do
    if b.bits.(i) then begin
      let term = shift_left a_ext i in
      (* The MSB row of a two's-complement multiplier is subtracted. *)
      if i = b.width - 1 then acc := sub !acc term
      else acc := add !acc term
    end
  done;
  !acc

let lt_unsigned a b = compare_unsigned a b < 0
let lt_signed a b = compare_signed a b < 0
