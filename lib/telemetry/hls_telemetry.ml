(* Global telemetry sink: inert unless armed (one load + branch on the
   disabled path, same discipline as Hls_util.Faults), mutex-protected
   when armed because spans close from worker domains.

   The trace side stores Chrome trace events (ph X/C/i/M) and serializes
   them itself — this library sits below every other in the stack, so it
   carries its own minimal JSON emitter rather than depending on one. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type mode = { m_trace : bool; m_metrics : bool }

let inert = { m_trace = false; m_metrics = false }
let mode = ref inert

type ev = {
  e_ph : char;  (* 'X' complete span, 'C' counter, 'i' instant, 'M' metadata *)
  e_name : string;
  e_cat : string;
  e_ts_us : float;
  e_dur_us : float;  (* 'X' only *)
  e_tid : int;
  e_args : (string * value) list;
}

let mu = Mutex.create ()
let events : ev list ref = ref []  (* newest first *)

(* The trace buffer keeps the first [max_events] events since start or
   the last reset and counts the rest in [dropped]: a traced long-running
   process (the request server) would otherwise grow it with every
   request until it exports.  About 90 bytes per event, so the full
   buffer holds about 24 MB. *)
let max_events = 262_144
let n_events = ref 0
let dropped = ref 0
let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let gauges : (string, float * float) Hashtbl.t = Hashtbl.create 32
let spans : (string, int * float) Hashtbl.t = Hashtbl.create 32
let open_count = ref 0
let epoch = ref (Unix.gettimeofday ())

let arm ?(trace = false) ?(metrics = true) () =
  mode := { m_trace = trace; m_metrics = metrics }

let disarm () = mode := inert

let reset () =
  Mutex.lock mu;
  events := [];
  n_events := 0;
  dropped := 0;
  Hashtbl.reset counters;
  Hashtbl.reset gauges;
  Hashtbl.reset spans;
  open_count := 0;
  epoch := Unix.gettimeofday ();
  Mutex.unlock mu

let armed () =
  let m = !mode in
  m.m_trace || m.m_metrics

let tid () = (Domain.self () :> int)
let now () = Unix.gettimeofday ()
let us_of t = (t -. !epoch) *. 1e6

(* Callers hold [mu]. *)
let push_locked e =
  if !n_events < max_events then begin
    events := e :: !events;
    incr n_events
  end
  else incr dropped

let set_gauge_locked name v =
  let _, mx = Option.value (Hashtbl.find_opt gauges name) ~default:(v, v) in
  Hashtbl.replace gauges name (v, Float.max mx v)

let with_span ?(cat = "hls") ?(attrs = []) name f =
  let m = !mode in
  if not (m.m_trace || m.m_metrics) then f ()
  else begin
    let tid = tid () in
    Mutex.lock mu;
    incr open_count;
    Mutex.unlock mu;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Float.max 0. (now () -. t0) in
        (* One GC sample per span close: major words climb monotonically
           (a counter in gauge clothing), top_heap_words tracks the
           high-water mark of the heap. *)
        let gc = Gc.quick_stat () in
        Mutex.lock mu;
        decr open_count;
        let c, tot =
          Option.value (Hashtbl.find_opt spans name) ~default:(0, 0.)
        in
        Hashtbl.replace spans name (c + 1, tot +. dur);
        set_gauge_locked "gc.major_words" gc.Gc.major_words;
        set_gauge_locked "gc.top_heap_words" (float_of_int gc.Gc.top_heap_words);
        if !mode.m_trace then
          push_locked
            {
              e_ph = 'X';
              e_name = name;
              e_cat = cat;
              e_ts_us = us_of t0;
              e_dur_us = dur *. 1e6;
              e_tid = tid;
              e_args = attrs;
            };
        Mutex.unlock mu)
      f
  end

let open_spans () =
  Mutex.lock mu;
  let n = !open_count in
  Mutex.unlock mu;
  n

let count ?(n = 1) name =
  let m = !mode in
  if m.m_trace || m.m_metrics then begin
    let t = now () in
    Mutex.lock mu;
    let total = Option.value (Hashtbl.find_opt counters name) ~default:0 + n in
    Hashtbl.replace counters name total;
    if m.m_trace then
      push_locked
        {
          e_ph = 'C';
          e_name = name;
          e_cat = "counter";
          e_ts_us = us_of t;
          e_dur_us = 0.;
          e_tid = tid ();
          e_args = [ ("value", Int total) ];
        };
    Mutex.unlock mu
  end

let gauge name v =
  let m = !mode in
  if m.m_trace || m.m_metrics then begin
    let t = now () in
    Mutex.lock mu;
    set_gauge_locked name v;
    if m.m_trace then
      push_locked
        {
          e_ph = 'C';
          e_name = name;
          e_cat = "gauge";
          e_ts_us = us_of t;
          e_dur_us = 0.;
          e_tid = tid ();
          e_args = [ ("value", Float v) ];
        };
    Mutex.unlock mu
  end

let event ?(attrs = []) name =
  let m = !mode in
  if m.m_trace || m.m_metrics then begin
    let t = now () in
    Mutex.lock mu;
    if m.m_trace then
      push_locked
        {
          e_ph = 'i';
          e_name = name;
          e_cat = "event";
          e_ts_us = us_of t;
          e_dur_us = 0.;
          e_tid = tid ();
          e_args = attrs;
        };
    Mutex.unlock mu
  end

let name_track name =
  let m = !mode in
  if m.m_trace then begin
    Mutex.lock mu;
    push_locked
      {
        e_ph = 'M';
        e_name = "thread_name";
        e_cat = "__metadata";
        e_ts_us = 0.;
        e_dur_us = 0.;
        e_tid = tid ();
        e_args = [ ("name", Str name) ];
      };
    Mutex.unlock mu
  end

(* ---- read side ---------------------------------------------------- *)

let sorted_bindings tbl =
  Mutex.lock mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let span_totals () = sorted_bindings spans
let counter_totals () = sorted_bindings counters

let counter_total name =
  Mutex.lock mu;
  let v = Option.value (Hashtbl.find_opt counters name) ~default:0 in
  Mutex.unlock mu;
  v

let gauge_find name =
  Mutex.lock mu;
  let v = Hashtbl.find_opt gauges name in
  Mutex.unlock mu;
  v

let gauge_last name = Option.map fst (gauge_find name)
let gauge_bindings () = sorted_bindings gauges

let dropped_events () =
  Mutex.lock mu;
  let n = !dropped in
  Mutex.unlock mu;
  n

let recorded_events () =
  Mutex.lock mu;
  let l = !events in
  Mutex.unlock mu;
  List.rev_map (fun e -> (e.e_name, e.e_tid)) l

(* ---- Chrome trace-event JSON export ------------------------------- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Str s -> add_json_string b s
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let add_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      add_json_string b k;
      Buffer.add_string b ": ";
      add_value b v)
    args;
  Buffer.add_char b '}'

let add_event b pid e =
  Buffer.add_string b "{\"name\": ";
  add_json_string b e.e_name;
  Buffer.add_string b ", \"cat\": ";
  add_json_string b e.e_cat;
  Buffer.add_string b (Printf.sprintf ", \"ph\": \"%c\"" e.e_ph);
  Buffer.add_string b (Printf.sprintf ", \"ts\": %.3f" e.e_ts_us);
  if e.e_ph = 'X' then
    Buffer.add_string b (Printf.sprintf ", \"dur\": %.3f" e.e_dur_us);
  if e.e_ph = 'i' then Buffer.add_string b ", \"s\": \"t\"";
  Buffer.add_string b (Printf.sprintf ", \"pid\": %d, \"tid\": %d" pid e.e_tid);
  if e.e_args <> [] then begin
    Buffer.add_string b ", \"args\": ";
    add_args b e.e_args
  end;
  Buffer.add_char b '}'

let chrome_trace () =
  Mutex.lock mu;
  let evs = List.rev !events in
  Mutex.unlock mu;
  let pid = Unix.getpid () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "  ";
      add_event b pid e)
    evs;
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))

(* ---- plain-text metrics summary ----------------------------------- *)

let metrics_summary () =
  let spans = span_totals () in
  let counters = counter_totals () in
  let gauges = sorted_bindings gauges in
  if spans = [] && counters = [] && gauges = [] then ""
  else begin
    let b = Buffer.create 1024 in
    if spans <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "%-24s %8s %12s %12s\n" "span" "calls" "total ms"
           "mean us");
      List.iter
        (fun (name, (c, tot)) ->
          Buffer.add_string b
            (Printf.sprintf "%-24s %8d %12.3f %12.2f\n" name c (tot *. 1e3)
               (tot /. float_of_int (max 1 c) *. 1e6)))
        spans
    end;
    if counters <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (name, v) ->
          Buffer.add_string b (Printf.sprintf "  %-24s %12d\n" name v))
        counters
    end;
    if gauges <> [] then begin
      Buffer.add_string b "gauges (last / max):\n";
      List.iter
        (fun (name, (last, mx)) ->
          Buffer.add_string b
            (Printf.sprintf "  %-24s %14.1f %14.1f\n" name last mx))
        gauges
    end;
    Buffer.contents b
  end

(* ---- latency statistics ------------------------------------------- *)

module Stats = struct
  (* Percentile over a sample of latencies (or any float samples).
     Nearest-rank on the sorted copy; the input is not mutated. *)
  let percentile samples p =
    match samples with
    | [] -> nan
    | _ ->
        let a = Array.of_list samples in
        Array.sort compare a;
        let n = Array.length a in
        let p = if p < 0. then 0. else if p > 100. then 100. else p in
        let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
        a.(max 0 (min (n - 1) (rank - 1)))

  let p50 samples = percentile samples 50.

  let mean = function
    | [] -> nan
    | samples ->
        List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)
end
