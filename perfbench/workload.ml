(* The four request-level workloads and their seeded inputs.  Each
   workload is an endless stream of ops (one request each) drawn from the
   seed: the same seed gives the same stream.  Streams run in rounds; a
   round is a seeded shuffle of the workload's weighted request mix, so
   every stretch of a run sees the same mix whatever the seed. *)

module R = Hls_api.Request
module Prng = Hls_util.Prng

type name = Sweep | Cold | Iterate | Serve

let names = [ ("sweep", Sweep); ("cold", Cold); ("iterate", Iterate); ("serve", Serve) ]
let of_string s = List.assoc_opt s names
let to_string w = fst (List.find (fun (_, v) -> v = w) names)

type op = {
  id : int;  (** position in the stream *)
  kind : string;  (** request type, for the per-type breakdown *)
  req : R.t;
}

let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* An endless stream over [mix] (weight, kind, request) in shuffled
   rounds. *)
let rounds prng mix =
  let round () =
    let a =
      Array.of_list
        (List.concat_map (fun (w, kind, req) -> List.init w (fun _ -> (kind, req))) mix)
    in
    shuffle prng a;
    a
  in
  let cur = ref [||] and pos = ref 0 and id = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := round ();
      pos := 0
    end;
    let kind, req = !cur.(!pos) in
    incr pos;
    let op = { id = !id; kind; req } in
    incr id;
    op

(* ------------------------------------------------------------------ *)
(* sweep: one v1 explore per op over a latency window of one catalog
   graph.  The three cheap graphs draw their window from the seed near
   their default latency, so the answered design points differ from seed
   to seed; the three costly ones keep a fixed window, so the time a
   round costs stays the same. *)

let sweep_graphs =
  (* name, default latency, seeded window, weight in a round *)
  [ ("fir8", 6, true, 1); ("adpcm-decoder", 14, true, 1); ("elliptic", 8, true, 1);
    ("dct8", 8, false, 4); ("random240", 14, false, 2); ("random480", 14, false, 3) ]

let sweep_window = 3

let explore name latencies =
  R.Explore
    {
      spec = R.Builtin name;
      params =
        {
          R.default_explore_params with
          latencies;
          policies = [ `Full ];
          lib_names = [ "ripple" ];
          balance_axis = [ true ];
          recipes = [ "none" ];
          iterates = [ 0 ];
          jobs = Some 1;
        };
    }

let sweep_mix prng =
  List.map
    (fun (name, center, seeded, w) ->
      let lo = center - 1 + if seeded then Prng.int prng 3 - 1 else 0 in
      (w, name, explore name (List.init sweep_window (fun i -> lo + i))))
    sweep_graphs

(* ------------------------------------------------------------------ *)
(* cold: generated spec-language designs the program has never seen,
   sent as Source text.  Each design makes a report (transform
   "standard", verify "every_pass") and a Verilog emit at one latency. *)

type design = { src : string; latency : int }

let cold_profile =
  { Hls_fuzz.Gen.default_profile with
    n_inputs = 5; n_stmts = 14; n_outputs = 3; depth = 3; max_width = 16 }

let min_ops = 20
let max_ops = 80

(* Draw designs until one has [min_ops..max_ops] operations and more
   than 16 input bits.  A smaller input space makes every equivalence
   check exhaustive (up to 65536 vectors per check), which turns one
   design in a few hundred into a minute-long op.  The latency is 3 or
   4: short enough for the fragmented flow to chain every design of this
   size.  (At latency 5 about 1 % of these designs elaborate to a
   netlist with a combinational loop, which the gate rejects.) *)
let rec design prng =
  let src = Hls_fuzz.Gen.source prng cold_profile in
  let latency = 3 + Prng.int prng 2 in
  match Hls_speclang.Elaborate.from_string_result src with
  | Ok g ->
      let n = Hls_dfg.Graph.behavioural_op_count g in
      if n >= min_ops && n <= max_ops && Hls_check.input_bits g > 16 then
        { src; latency }
      else design prng
  | Error _ -> design prng

let cold_config = { R.default_config with transform = "standard"; verify = "every_pass" }

let cold_ops d =
  [ ("report", R.Report { spec = R.Source d.src; latency = d.latency;
                          config = cold_config; target_ns = None });
    ("emit", R.Emit { spec = R.Source d.src; latency = d.latency;
                      format = R.Verilog; config = cold_config }) ]

(* The designs come from a fixed pool drawn in set-up; each run walks the
   pool in an order drawn from its seed, two ops per design.  A run
   answers most of the pool, so its geometric-mean circuit
   figures vary little from seed to seed while the designs it sees, and
   their order, differ.  A run that outlasts the pool starts over. *)
let pool_size = 256
let pool_seed = 0x5eed

let cold_stream order =
  let id = ref 0 in
  fun () ->
    let i = !id in
    let d = order.(i / 2 mod Array.length order) in
    let kind, req = List.nth (cold_ops d) (i mod 2) in
    incr id;
    { id = i; kind; req }

(* ------------------------------------------------------------------ *)
(* iterate: one v1 iterate (8 rounds) per op at the slack latency 14.
   Only adpcm-decoder draws its latency from the seed, 14 or 16: from 13,
   14 or 15 the loop converges to the same certified design, from 16 to
   a different one, so the answered designs differ from seed to seed
   while the time a round costs barely moves. *)

let iterate_graphs =
  (* name, seeded latency, weight in a round *)
  [ ("adpcm-decoder", true, 1); ("fir8", false, 1); ("elliptic", false, 1);
    ("dct8", false, 2); ("random240", false, 2); ("random480", false, 2) ]

let iterate_mix prng =
  List.map
    (fun (name, seeded, w) ->
      let latency = if seeded then 14 + (2 * Prng.int prng 2) else 14 in
      (w, name,
       R.Iterate { spec = R.Builtin name; latency; rounds = 8; config = R.default_config }))
    iterate_graphs

(* ------------------------------------------------------------------ *)
(* serve: small requests whose pipeline work is a few ms, weighted so
   the median and the 90th percentile each fall inside one request
   type's latency mode.  Only the fig3 report (weight 1) draws its
   latency from the seed. *)

let serve_mix prng =
  let report name latency =
    R.Report { spec = R.Builtin name; latency; config = R.default_config; target_ns = None }
  in
  [ (5, "report-chain3", report "chain3" 3);
    (1, "report-fig3", report "fig3" (2 + Prng.int prng 2));
    (3, "report-adpcm-iaq", report "adpcm-iaq" 8);
    (2, "schedule-fir2",
     R.Schedule { spec = R.Builtin "fir2"; latency = 4; flow = R.Optimized;
                  config = R.default_config }) ]

(* ------------------------------------------------------------------ *)

type plan = {
  next : unit -> op;  (** the seeded op stream *)
  slice : int;
      (** ops per timed batch: whole rounds of the mix (cold: eight
          designs), so every batch does about the same work *)
  warmup : R.t list;
      (** requests run once before timing starts: every distinct request
          of the mix, or for cold one design outside the stream *)
}

(* The seeded plan of a workload. *)
let plan w ~seed =
  let prng = Prng.create ~seed in
  let mixed ~rounds_per_slice mix =
    { next = rounds prng mix;
      slice = rounds_per_slice * List.fold_left (fun n (w, _, _) -> n + w) 0 mix;
      warmup = List.map (fun (_, _, req) -> req) mix }
  in
  match w with
  | Sweep -> mixed ~rounds_per_slice:1 (sweep_mix prng)
  | Iterate -> mixed ~rounds_per_slice:2 (iterate_mix prng)
  | Serve -> mixed ~rounds_per_slice:20 (serve_mix prng)
  | Cold ->
      let pool_prng = Prng.create ~seed:pool_seed in
      let pool = Array.init pool_size (fun _ -> design pool_prng) in
      shuffle prng pool;
      { next = cold_stream pool; slice = 16;
        warmup = List.map snd (cold_ops (design pool_prng)) }

(* The first [n] ops of a stream. *)
let take next n = List.init n (fun _ -> next ())
