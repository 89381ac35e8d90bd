open Hls_util

let test_ceil_div () =
  Alcotest.(check int) "9/3" 3 (Int_math.ceil_div 9 3);
  Alcotest.(check int) "10/3" 4 (Int_math.ceil_div 10 3);
  Alcotest.(check int) "1/4" 1 (Int_math.ceil_div 1 4);
  Alcotest.(check int) "0/4" 0 (Int_math.ceil_div 0 4);
  Alcotest.check_raises "div by zero" (Invalid_argument
    "Int_math.ceil_div: non-positive divisor") (fun () ->
      ignore (Int_math.ceil_div 3 0))

let test_clog2 () =
  Alcotest.(check int) "clog2 1" 0 (Int_math.clog2 1);
  Alcotest.(check int) "clog2 2" 1 (Int_math.clog2 2);
  Alcotest.(check int) "clog2 3" 2 (Int_math.clog2 3);
  Alcotest.(check int) "clog2 8" 3 (Int_math.clog2 8);
  Alcotest.(check int) "clog2 9" 4 (Int_math.clog2 9)

let test_bits_for_value () =
  Alcotest.(check int) "0" 1 (Int_math.bits_for_value 0);
  Alcotest.(check int) "1" 1 (Int_math.bits_for_value 1);
  Alcotest.(check int) "2" 2 (Int_math.bits_for_value 2);
  Alcotest.(check int) "255" 8 (Int_math.bits_for_value 255);
  Alcotest.(check int) "256" 9 (Int_math.bits_for_value 256)

let test_group_runs () =
  let runs =
    List_ext.group_runs ~eq:( = ) [ 1; 1; 2; 2; 2; 1; 3 ]
  in
  Alcotest.(check (list (list int)))
    "runs" [ [ 1; 1 ]; [ 2; 2; 2 ]; [ 1 ]; [ 3 ] ] runs;
  Alcotest.(check (list (list int))) "empty" [] (List_ext.group_runs ~eq:( = ) [])

let test_range () =
  Alcotest.(check (list int)) "0..4" [ 0; 1; 2; 3 ] (List_ext.range 0 4);
  Alcotest.(check (list int)) "empty" [] (List_ext.range 3 3);
  Alcotest.(check (list int)) "backward" [] (List_ext.range 4 2)

let test_max_by () =
  Alcotest.(check int) "max" (-9) (List_ext.max_by abs [ -9; 3; 4 ]);
  Alcotest.(check int) "min" 3 (List_ext.min_by abs [ -9; 3; 4 ])

let test_dedup () =
  Alcotest.(check (list int))
    "dedup keeps order" [ 3; 1; 2 ]
    (List_ext.dedup ~eq:( = ) [ 3; 1; 3; 2; 1 ])

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let da = List.init 20 (fun _ -> Prng.int a 1000) in
  let db = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" da db;
  let c = Prng.create ~seed:43 in
  let dc = List.init 20 (fun _ -> Prng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (da <> dc)

let test_prng_bounds () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_render_table () =
  let s =
    Pretty.render_table ~header:[ "a"; "bb" ] [ [ "ccc"; "d" ]; [ "e" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  Alcotest.(check bool) "separator present" true
    (String.contains s '-')

let test_pct () =
  Alcotest.(check (float 1e-9)) "halved" 50.0 (Pretty.pct ~from:10. ~to_:5.);
  Alcotest.(check (float 1e-9)) "zero base" 0.0 (Pretty.pct ~from:0. ~to_:5.)

(* The decimal writers answer [string_of_int]'s bytes, at the edges of
   the int range and at every digit-count boundary. *)
let test_decimal () =
  let module D = Hls_util.Decimal in
  let edges =
    [ 0; 1; 9; 10; 99; 100; 12345; max_int; -1; -9; -10; -12345; min_int ]
    @ List.init 18 (fun k -> int_of_float (10. ** float_of_int (k + 1)) - 1)
  in
  List.iter
    (fun n ->
      let buf = Buffer.create 4 in
      D.add_int buf n;
      Alcotest.(check string) "add_int" (string_of_int n) (Buffer.contents buf);
      if n >= 0 then begin
        let b = Bytes.make (D.digits n + 2) '_' in
        Alcotest.(check int) "put_int end" (1 + D.digits n) (D.put_int b 1 n);
        Alcotest.(check string) "put_int" ("_" ^ string_of_int n ^ "_")
          (Bytes.to_string b);
        Alcotest.(check string) "suffixed" ("op.s" ^ string_of_int n)
          (D.suffixed "op" ".s" n)
      end)
    edges

let suite =
  [
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "clog2" `Quick test_clog2;
    Alcotest.test_case "bits_for_value" `Quick test_bits_for_value;
    Alcotest.test_case "group_runs" `Quick test_group_runs;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "max_by/min_by" `Quick test_max_by;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "render_table" `Quick test_render_table;
    Alcotest.test_case "pct" `Quick test_pct;
    Alcotest.test_case "decimal writers" `Quick test_decimal;
  ]
