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

let suite =
  [
    Alcotest.test_case "a caller deadline beats the idle bound" `Quick
      test_deadline_wakes_early;
    Alcotest.test_case "an idle loop does not spin" `Quick
      test_idle_does_not_spin;
    Alcotest.test_case "stop from another domain is seen" `Quick
      test_stop_from_another_domain;
    QCheck_alcotest.to_alcotest prop_framing;
  ]
