(* The readiness loop under the daemon and the router: it wakes on the
   caller's earliest deadline rather than a fixed tick, does not spin
   when idle, sees a stop flag from another domain within its idle
   bound, and frames lines the same way however the stream is chopped
   into reads. *)

module Loop = Hls_server.Loop

let check_bool = Alcotest.(check bool)

let sock name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hls-loop-%d-%s.sock" (Unix.getpid ()) name)

let idle_hooks on_turn =
  {
    Loop.on_line = (fun _ _ -> ());
    on_turn;
    extra = (fun () -> []);
    owes = (fun _ -> false);
    busy = (fun () -> false);
    on_drain = (fun _ -> ());
    on_drained = (fun () -> ());
  }

let create stop name =
  Loop.create ~stop
    {
      Loop.name = "test";
      socket = Some (sock name);
      listen = None;
      max_line = 1024;
      max_conns = None;
      io_timeout_s = None;
      grace_s = 1.0;
    }

let test_deadline_wakes_early () =
  let stop = Atomic.make false in
  let loop = create stop "deadline" in
  let start = Unix.gettimeofday () in
  let due = start +. 0.03 in
  let fired = ref None in
  Loop.run loop
    (idle_hooks (fun now ->
         if now >= due && !fired = None then begin
           fired := Some (now -. start);
           Atomic.set stop true
         end;
         if !fired = None then due else infinity));
  match !fired with
  | None -> Alcotest.fail "the deadline never fired"
  | Some dt ->
      check_bool
        (Printf.sprintf "fired at %.1f ms, after the 30 ms deadline and \
                         well before the %.0f ms idle bound"
           (dt *. 1e3) (Loop.idle_bound *. 1e3))
        true
        (dt >= 0.03 && dt < 0.03 +. (Loop.idle_bound /. 2.))

let test_idle_does_not_spin () =
  let stop = Atomic.make false in
  let loop = create stop "idle" in
  let wakes = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        Loop.run loop
          (idle_hooks (fun _ ->
               Atomic.incr wakes;
               infinity)))
  in
  Unix.sleepf 0.5;
  Atomic.set stop true;
  Domain.join d;
  let bound = int_of_float (0.5 /. Loop.idle_bound) + 2 in
  check_bool
    (Printf.sprintf "%d wakes in 0.5 s (at most %d)" (Atomic.get wakes) bound)
    true
    (Atomic.get wakes >= 1 && Atomic.get wakes <= bound)

let test_stop_from_another_domain () =
  let stop = Atomic.make false in
  let loop = create stop "stop" in
  let d =
    Domain.spawn (fun () -> Loop.run loop (idle_hooks (fun _ -> infinity)))
  in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Atomic.set stop true;
  Domain.join d;
  let dt = Unix.gettimeofday () -. t0 in
  check_bool
    (Printf.sprintf "stopped %.1f ms after the flag" (dt *. 1e3))
    true
    (dt <= Loop.idle_bound +. 0.05);
  check_bool "socket file removed" false (Sys.file_exists (sock "stop"))

(* Chop a stream of lines (each at most [max_line] bytes, plus an
   unterminated tail of any length) into random read sizes, then one
   byte at a time once the sizes run out.  Framing must give back
   exactly the complete lines, and flag a read as overlong exactly when
   the unterminated bytes received since the last newline exceed
   [max_line]. *)
let prop_framing =
  let max_line = 16 in
  let line =
    QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (0 -- max_line))
  in
  let gen =
    QCheck.Gen.(
      triple (list_size (0 -- 12) line)
        (string_size ~gen:(char_range 'a' 'z') (0 -- (2 * max_line)))
        (list_size (1 -- 20) (1 -- 40)))
  in
  QCheck.Test.make ~name:"framing is independent of read sizes" ~count:500
    (QCheck.make gen) (fun (lines, tail, sizes) ->
      let stream =
        String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail
      in
      let c = Loop.conn ~name:"test" Unix.stdin in
      let got = ref [] and ok = ref true in
      let rec feed off sizes =
        if off < String.length stream then begin
          let k, sizes =
            match sizes with k :: rest -> (k, rest) | [] -> (1, [])
          in
          let k = min k (String.length stream - off) in
          Buffer.add_string c.Loop.buf (String.sub stream off k);
          let framed, overlong = Loop.frame ~max_line c in
          got := List.rev_append framed !got;
          let fed = off + k in
          let since_nl =
            match String.rindex_from_opt stream (fed - 1) '\n' with
            | Some nl -> fed - nl - 1
            | None -> fed
          in
          if overlong <> (since_nl > max_line) then ok := false;
          feed fed sizes
        end
      in
      feed 0 sizes;
      !ok && List.rev !got = lines && Buffer.contents c.Loop.buf = tail)

(* A 300 KB line, longer than the loop's 64 KiB read buffer, written in
   chunks of one size (at most 64 KiB per write) and framed after every
   read, followed by the start of a second line.  For each size: no line
   comes out before its newline, the line comes out whole and once, the
   second line's start stays buffered, the overlong flag follows the
   unterminated byte count, and every buffered byte has been scanned
   (none is searched twice). *)
let test_long_line_chunks () =
  let line =
    String.init 300_000 (fun i -> Char.chr (97 + (((i * 7) + (i / 26)) mod 26)))
  in
  let stream = line ^ "\nnext" in
  let total = String.length stream in
  let max_line = String.length line - 1 in
  List.iter
    (fun size ->
      let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          let c = Loop.conn ~name:"test" r in
          let got = ref [] and received = ref 0 and ok = ref true in
          let rec pump upto =
            if !received < upto then begin
              let before = Buffer.length c.Loop.buf in
              Loop.read c;
              received := !received + Buffer.length c.Loop.buf - before;
              let framed, overlong = Loop.frame ~max_line c in
              got := List.rev_append framed !got;
              let nl = String.length line in
              let since_nl =
                if !received > nl then !received - nl - 1 else !received
              in
              if overlong <> (since_nl > max_line)
                 || c.Loop.scanned <> Buffer.length c.Loop.buf
                 || (!received <= nl && !got <> [])
              then ok := false;
              pump upto
            end
          in
          let rec send off =
            if off < total then begin
              let stop = Int.min total (off + size) in
              let rec chunk off =
                if off < stop then begin
                  let n =
                    Unix.single_write_substring w stream off
                      (Int.min 65536 (stop - off))
                  in
                  pump (off + n);
                  chunk (off + n)
                end
              in
              chunk off;
              send stop
            end
          in
          send 0;
          let name what = Printf.sprintf "%s, %d-byte chunks" what size in
          check_bool (name "framing held at every read") true !ok;
          Alcotest.(check (list string)) (name "the line, once") [ line ] !got;
          Alcotest.(check string)
            (name "the next line's start stays buffered")
            "next"
            (Buffer.contents c.Loop.buf)))
    [ 1; 2; 3; 7; 1000; 4095; 4096; 65535; 65536; 65537; 100_000; total ]

(* Two loops on two domains of one process, each echoing every line,
   with a client per loop pipelining distinct 20–60 KB payloads (its own
   letters only) as fast as the loop answers: every echo must be exactly
   the payload sent to that loop.  A read buffer shared between the
   domains mixes the two streams. *)
let test_two_domains_own_payloads () =
  let payload tag i =
    String.init
      (20_000 + (i * 7919 mod 40_000))
      (fun j -> Char.chr (Char.code tag + ((i + j) mod 10)))
  in
  let start tag =
    let stop = Atomic.make false in
    let name = Printf.sprintf "domain-%c" tag in
    let loop =
      Loop.create ~stop
        {
          Loop.name = "test";
          socket = Some (sock name);
          listen = None;
          max_line = 100_000;
          max_conns = None;
          io_timeout_s = None;
          grace_s = 1.0;
        }
    in
    let hooks =
      { (idle_hooks (fun _ -> infinity)) with
        Loop.on_line = (fun c line -> Loop.write_line c line) }
    in
    (stop, Domain.spawn (fun () -> Loop.run loop hooks), name)
  in
  let client (tag, (_, _, name)) =
    Domain.spawn (fun () ->
        match Hls_server.Client.connect_fd (Unix_socket (sock name)) with
        | Error m -> Error m
        | Ok fd ->
            (* A torn stream can lose a newline: time out, do not hang. *)
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
            let ic = Unix.in_channel_of_descr fd
            and oc = Unix.out_channel_of_descr fd in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let rec rounds k bad =
                  if k = 40 then Ok bad
                  else
                    let sent = List.init 4 (fun j -> payload tag ((4 * k) + j)) in
                    List.iter
                      (fun l ->
                        output_string oc l;
                        output_char oc '\n')
                      sent;
                    flush oc;
                    match List.map (fun _ -> input_line ic) sent with
                    | echoes ->
                        rounds (k + 1) (bad + if echoes = sent then 0 else 1)
                    | exception (End_of_file | Sys_error _ | Sys_blocked_io) ->
                        Error (Printf.sprintf "no echo in burst %d" k)
                in
                rounds 0 0))
  in
  let loops = [ ('A', start 'A'); ('a', start 'a') ] in
  let results = List.map Domain.join (List.map client loops) in
  List.iter
    (fun (_, (stop, d, _)) ->
      Atomic.set stop true;
      Domain.join d)
    loops;
  List.iter2
    (fun (tag, _) r ->
      match r with
      | Error m -> Alcotest.failf "client of loop %c: %s" tag m
      | Ok bad ->
          Alcotest.(check int)
            (Printf.sprintf "loop %c: bursts with a foreign or torn echo" tag)
            0 bad)
    loops results

let suite =
  [
    Alcotest.test_case "a caller deadline beats the idle bound" `Quick
      test_deadline_wakes_early;
    Alcotest.test_case "an idle loop does not spin" `Quick
      test_idle_does_not_spin;
    Alcotest.test_case "stop from another domain is seen" `Quick
      test_stop_from_another_domain;
    QCheck_alcotest.to_alcotest prop_framing;
    Alcotest.test_case "a 300 KB line over many reads" `Quick
      test_long_line_chunks;
    Alcotest.test_case "two loops on two domains keep their own bytes"
      `Quick test_two_domains_own_payloads;
  ]
