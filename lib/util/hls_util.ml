(** Small shared helpers used across the HLS libraries.

    Nothing here is specific to high-level synthesis; these are the generic
    integer / list / formatting utilities the rest of the code base leans on
    so that the domain modules stay focused on their algorithms. *)

module Int_math = struct
  (** Integer arithmetic helpers for widths, cycles and gate counts. *)

  let ceil_div a b =
    if b <= 0 then invalid_arg "Int_math.ceil_div: non-positive divisor";
    if a <= 0 then 0 else (a + b - 1) / b

  (** [clog2 n] is the number of bits needed to represent [n] distinct
      values, i.e. ceil(log2 n); [clog2 1 = 0]. *)
  let clog2 n =
    if n <= 0 then invalid_arg "Int_math.clog2: non-positive argument";
    let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
    go 0 1

  (** [bits_for_value v] is the number of bits needed to hold the unsigned
      value [v]; [bits_for_value 0 = 1]. *)
  let bits_for_value v =
    if v < 0 then invalid_arg "Int_math.bits_for_value: negative value";
    if v = 0 then 1
    else
      let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
      go 0 v

  let clamp ~lo ~hi v = max lo (min hi v)

  let pow2 n =
    if n < 0 || n > 62 then invalid_arg "Int_math.pow2: out of range";
    1 lsl n
end

module List_ext = struct
  let rec last = function
    | [] -> invalid_arg "List_ext.last: empty list"
    | [ x ] -> x
    | _ :: tl -> last tl

  let sum = List.fold_left ( + ) 0
  let sum_by f = List.fold_left (fun acc x -> acc + f x) 0

  let max_by f = function
    | [] -> invalid_arg "List_ext.max_by: empty list"
    | x :: tl ->
        List.fold_left (fun acc y -> if f y > f acc then y else acc) x tl

  let min_by f = function
    | [] -> invalid_arg "List_ext.min_by: empty list"
    | x :: tl ->
        List.fold_left (fun acc y -> if f y < f acc then y else acc) x tl

  (** [range a b] is [a; a+1; ...; b-1] (empty when [b <= a]). *)
  let range a b = List.init (max 0 (b - a)) (fun i -> a + i)

  (** Group consecutive elements for which [eq] holds into runs,
      preserving order. *)
  let group_runs ~eq l =
    let close run acc = if run = [] then acc else List.rev run :: acc in
    let rec go run acc = function
      | [] -> List.rev (close run acc)
      | x :: tl -> (
          match run with
          | [] -> go [ x ] acc tl
          | y :: _ when eq y x -> go (x :: run) acc tl
          | _ -> go [ x ] (close run acc) tl)
    in
    go [] [] l

  (** Stable deduplication preserving the first occurrence. *)
  let dedup ~eq l =
    let rec go acc = function
      | [] -> List.rev acc
      | x :: tl ->
          if List.exists (eq x) acc then go acc tl else go (x :: acc) tl
    in
    go [] l

  let take n l =
    let rec go n acc = function
      | [] -> List.rev acc
      | _ when n <= 0 -> List.rev acc
      | x :: tl -> go (n - 1) (x :: acc) tl
    in
    go n [] l
end

module Pretty = struct
  (** Formatting helpers for the textual reports the benches print. *)

  let pct ~from ~to_ =
    if from = 0. then 0. else (from -. to_) /. from *. 100.

  let pp_pct ppf v = Fmt.pf ppf "%.2f %%" v
  let pp_ns ppf v = Fmt.pf ppf "%.2f ns" v
  let pp_gates ppf v = Fmt.pf ppf "%d gates" v

  (** Render a table with a header row; columns are padded to the widest
      cell. Used by the bench harness to print the paper's tables. *)
  let render_table ~header rows =
    let all = header :: rows in
    let ncols =
      List.fold_left (fun acc r -> max acc (List.length r)) 0 all
    in
    let widths = Array.make ncols 0 in
    List.iter
      (fun row ->
        List.iteri
          (fun i cell ->
            if i < ncols then
              widths.(i) <- max widths.(i) (String.length cell))
          row)
      all;
    let buf = Buffer.create 256 in
    let render_row row =
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf cell;
          if i < ncols - 1 then
            Buffer.add_string buf
              (String.make (widths.(i) - String.length cell) ' '))
        row;
      Buffer.add_char buf '\n'
    in
    render_row header;
    Buffer.add_string buf
      (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
    Buffer.add_char buf '\n';
    List.iter render_row rows;
    Buffer.contents buf
end

module Decimal = struct
  (** Decimal integers written straight into a [Buffer] or [Bytes], the
      bytes [string_of_int] would produce, without building an
      intermediate string: the text printers (graphs, RTL) and the label
      builders (kernel extraction, fragmentation, binding) write one per
      node or net. *)

  (* Digits of [n <= 0]: negated remainders, so [min_int] needs no
     special case. *)
  let rec add_neg buf n =
    if n <= -10 then add_neg buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

  (** [add_int buf n] appends [n] in decimal, as [string_of_int n]
      would. *)
  let add_int buf n =
    if n < 0 then Buffer.add_char buf '-';
    add_neg buf (if n < 0 then n else -n)

  (** Number of decimal digits of [n >= 0]. *)
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

  (** [put_int b pos n] writes the [digits n] digits of [n >= 0] into [b]
      from [pos]; the position after them. *)
  let put_int b pos n =
    let stop = pos + digits n in
    let n = ref n in
    for i = stop - 1 downto pos do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    stop

  (** [suffixed s sep n] is [s ^ sep ^ string_of_int n] for [n >= 0], in
      one allocation. *)
  let suffixed s sep n =
    let sl = String.length s and pl = String.length sep in
    let b = Bytes.create (sl + pl + digits n) in
    Bytes.unsafe_blit_string s 0 b 0 sl;
    Bytes.unsafe_blit_string sep 0 b sl pl;
    ignore (put_int b (sl + pl) n);
    Bytes.unsafe_to_string b
end

(** Deterministic splittable PRNG used by workload generators so that
    benchmark DFGs are reproducible run to run. *)
module Prng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int (seed lxor 0x9E3779B9) }

  (* SplitMix64 step; plenty for generating reproducible workloads. *)
  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (** [int t bound] draws uniformly from [0, bound). *)
  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                    (Int64.of_int bound))

  let bool t = Int64.logand (next t) 1L = 1L

  (** [pick t l] draws a uniformly random element of [l]. *)
  let pick t l =
    match l with
    | [] -> invalid_arg "Prng.pick: empty list"
    | _ -> List.nth l (int t (List.length l))
end

(** Typed failure taxonomy for synthesis flows.

    A design-space sweep sees four kinds of trouble, and they deserve
    different treatment: an [Infeasible] point can never succeed (retrying
    burns cycles for nothing), a [Timeout] or [Resource] exhaustion is
    load-dependent and worth retrying, and an [Internal] exception is a
    bug or a transient environmental fault — retried a bounded number of
    times, then reported.  Producers (the pipeline, the fragment planner,
    the schedulers) register classifiers here so that consumers (the job
    pool, the sweep driver) can route outcomes without knowing every
    exception type in the stack. *)
module Failure = struct
  type t =
    | Infeasible of string  (** the design point cannot exist; never retry *)
    | Timeout of float  (** seconds the job had been running *)
    | Resource of string  (** memory/stack exhaustion; retryable *)
    | Internal of exn  (** unclassified exception; retryable, bounded *)

  (** Raised by flows that want to signal an already classified fault. *)
  exception Flow_failure of t

  (** An [Internal] fault reconstructed from a wire message or journal —
      the original exception no longer exists in this process.  Its
      registered printer prints the carried text verbatim, so decoding a
      serialized failure and re-serializing it is lossless. *)
  exception Remote of string

  let () =
    Printexc.register_printer (function Remote m -> Some m | _ -> None)

  let to_string = function
    | Infeasible m -> "infeasible: " ^ m
    | Timeout s -> Printf.sprintf "timed out after %.2f s" s
    | Resource m -> "resource exhausted: " ^ m
    | Internal e -> Printexc.to_string e

  (** Short tag for tables, journals and JSON. *)
  let class_name = function
    | Infeasible _ -> "infeasible"
    | Timeout _ -> "timeout"
    | Resource _ -> "resource"
    | Internal _ -> "internal"

  (** Transient faults worth re-dispatching; [Infeasible] is permanent. *)
  let retryable = function
    | Infeasible _ -> false
    | Timeout _ | Resource _ | Internal _ -> true

  (** Documented process exit codes, one per failure class, shared by
      [hlsopt] and the api error surface so scripts can tell an
      impossible design point from a tool fault: infeasible 3, timeout 4,
      resource 5, internal 7.  (0 is success, 2 a usage error, 6 an
      overloaded server — see [Hls_api.Error.exit_code]; 1 is left to the
      shell and 124/125 to cmdliner.) *)
  let exit_code = function
    | Infeasible _ -> 3
    | Timeout _ -> 4
    | Resource _ -> 5
    | Internal _ -> 7

  (* Registered exception classifiers, consulted in registration order.
     Registration happens at module-initialization time (before any worker
     domain exists), so the unsynchronized ref is safe: domains only read. *)
  let classifiers : (exn -> t option) list ref = ref []
  let register_classifier f = classifiers := !classifiers @ [ f ]

  let classify_exn = function
    | Flow_failure f -> f
    | Out_of_memory -> Resource "out of memory"
    | Stack_overflow -> Resource "stack overflow"
    | e ->
        let rec go = function
          | [] -> Internal e
          | f :: rest -> ( match f e with Some t -> t | None -> go rest)
        in
        go !classifiers
end

(** Fault-injection hooks for resilience tests.

    Compiled in always, inert unless armed: every probe first checks a
    single mutable record that normal runs never set, so the cost on the
    hot path is one load and one branch.  Tests (and [make fault-smoke],
    via the [HLS_FAULTS] environment variable) arm a fault, run the stack
    end to end, and assert that retry / journal replay / degradation put
    the sweep back together. *)
module Faults = struct
  (** The exception injected faults raise; classified as [Internal]
      (retryable) by {!Failure.classify_exn}. *)
  exception Injected of string

  type spec = {
    fail_job : (int * int) option;
        (** [(n, k)]: job index [n] raises on its first [k] executions *)
    delay_job : (int option * float) option;
        (** delay job [Some n] (or every job, [None]) by [s] seconds *)
    corrupt_writes : bool;  (** garble bytes written by the cache *)
    die_before_rename : bool;
        (** [exit 42] between writing a store and renaming it into place *)
    drop_conn : int option;
        (** close the [n]-th accepted connection (1-based) right away *)
    stall_read : float option;
        (** sleep [s] seconds before every server-side socket read *)
    truncate_write : int option;
        (** send only half of the [n]-th network response line, then
            drop the connection *)
    slow_accept : float option;  (** sleep [s] seconds before accepting *)
  }

  let inert =
    {
      fail_job = None;
      delay_job = None;
      corrupt_writes = false;
      die_before_rename = false;
      drop_conn = None;
      stall_read = None;
      truncate_write = None;
      slow_accept = None;
    }

  let spec = ref inert
  let mu = Mutex.create ()
  let exec_counts : (int, int) Hashtbl.t = Hashtbl.create 7
  let accept_count = ref 0
  let net_write_count = ref 0

  let arm s =
    Mutex.lock mu;
    Hashtbl.reset exec_counts;
    accept_count := 0;
    net_write_count := 0;
    spec := s;
    Mutex.unlock mu

  let disarm () = arm inert
  let armed () = !spec != inert && !spec <> inert

  (** Probe: called with the job's stable index before it executes.
      May sleep ([delay_job]) or raise {!Injected} ([fail_job]). *)
  let on_job job =
    let s = !spec in
    (match s.delay_job with
    | Some (which, secs)
      when (match which with None -> true | Some j -> j = job) ->
        Unix.sleepf secs
    | _ -> ());
    match s.fail_job with
    | Some (n, k) when n = job ->
        Mutex.lock mu;
        let c = Option.value (Hashtbl.find_opt exec_counts job) ~default:0 + 1 in
        Hashtbl.replace exec_counts job c;
        Mutex.unlock mu;
        if c <= k then
          raise (Injected (Printf.sprintf "injected fault: job %d attempt %d" job c))
    | _ -> ()

  (** Probe: bytes about to be written by a store; garbled when
      [corrupt_writes] is armed. *)
  let on_write bytes =
    if not !spec.corrupt_writes || String.length bytes = 0 then bytes
    else
      let b = Bytes.of_string bytes in
      let n = Bytes.length b in
      Bytes.blit_string "#corrupt#" 0 b (n / 2) (min 9 (n - (n / 2)));
      Bytes.to_string b

  (** Probe: called between writing a temp store and renaming it into
      place; simulates a crash at the worst moment. *)
  let before_rename () =
    if !spec.die_before_rename then begin
      prerr_endline "hls-faults: dying before rename (injected)";
      exit 42
    end

  (* --- network fault modes (servers and routers probe these) --- *)

  (** Probe: a listener is about to accept a connection.  May sleep
      ([slow_accept]); returns [true] when the connection just accepted
      (1-based count) should be dropped on the floor ([drop_conn]). *)
  let on_accept () =
    let s = !spec in
    (match s.slow_accept with Some secs -> Unix.sleepf secs | None -> ());
    match s.drop_conn with
    | None -> false
    | Some n ->
        Mutex.lock mu;
        incr accept_count;
        let c = !accept_count in
        Mutex.unlock mu;
        c = n

  (** Probe: a server is about to read from a connection.  May sleep
      ([stall_read]), simulating a stalled peer or saturated link. *)
  let on_read () =
    match !spec.stall_read with
    | Some secs -> Unix.sleepf secs
    | None -> ()

  (** Probe: a response line is about to go out on a connection.
      [Some k] means: send only the first [k] bytes of this [len]-byte
      line, then kill the connection ([truncate_write], counted
      1-based across the process). *)
  let on_net_write ~len =
    match !spec.truncate_write with
    | None -> None
    | Some n ->
        Mutex.lock mu;
        incr net_write_count;
        let c = !net_write_count in
        Mutex.unlock mu;
        if c = n then Some (len / 2) else None

  (** Arm from an environment variable (default [HLS_FAULTS]); inert when
      unset.  Comma-separated terms:
      [fail-job=N:K], [delay-job=S], [delay-job=N:S], [corrupt-writes],
      [die-before-rename], [drop-conn=N], [stall-read=S],
      [truncate-write=N], [slow-accept=S].  Unknown terms raise
      [Invalid_argument]. *)
  let arm_from_env ?(var = "HLS_FAULTS") () =
    match Sys.getenv_opt var with
    | None | Some "" -> ()
    | Some v ->
        let s =
          List.fold_left
            (fun s term ->
              match String.split_on_char '=' (String.trim term) with
              | [ "corrupt-writes" ] -> { s with corrupt_writes = true }
              | [ "die-before-rename" ] -> { s with die_before_rename = true }
              | [ "fail-job"; nk ] -> (
                  match String.split_on_char ':' nk with
                  | [ n; k ] ->
                      { s with
                        fail_job = Some (int_of_string n, int_of_string k) }
                  | _ -> invalid_arg ("Faults.arm_from_env: " ^ term))
              | [ "delay-job"; spec ] -> (
                  match String.split_on_char ':' spec with
                  | [ secs ] ->
                      { s with delay_job = Some (None, float_of_string secs) }
                  | [ n; secs ] ->
                      { s with
                        delay_job =
                          Some (Some (int_of_string n), float_of_string secs) }
                  | _ -> invalid_arg ("Faults.arm_from_env: " ^ term))
              | [ "drop-conn"; n ] ->
                  { s with drop_conn = Some (int_of_string n) }
              | [ "stall-read"; secs ] ->
                  { s with stall_read = Some (float_of_string secs) }
              | [ "truncate-write"; n ] ->
                  { s with truncate_write = Some (int_of_string n) }
              | [ "slow-accept"; secs ] ->
                  { s with slow_accept = Some (float_of_string secs) }
              | _ -> invalid_arg ("Faults.arm_from_env: " ^ term))
            inert
            (String.split_on_char ',' v)
        in
        arm s
end

module Csd = struct
  (** Canonical signed-digit recoding of integer constants.

      A constant multiplier is a network of shift-adds, one per nonzero CSD
      digit; CSD guarantees no two adjacent digits are nonzero, so an
      n-bit constant has at most ceil((n+1)/2) digits and typically ~n/3.
      Used to lower multiplications by constants into a handful of
      additions (as any synthesis tool does for filter coefficients). *)

  (** [digits v] returns the CSD digits of [v] as (bit position, negative?)
      pairs, least significant first.  [digits 0 = []];
      Σ ±2^pos reconstructs [v] exactly. *)
  let digits v =
    let negative = v < 0 in
    let v = abs v in
    (* Standard recoding: examine bits of v + carry; a run of ones becomes
       +2^(k+1) - 2^j. *)
    let rec go pos v acc =
      if v = 0 then List.rev acc
      else if v land 1 = 0 then go (pos + 1) (v lsr 1) acc
      else if v land 3 = 3 then
        (* ...11 -> -1 here, carry up. *)
        go (pos + 1) ((v lsr 1) + 1) ((pos, true) :: acc)
      else go (pos + 1) (v lsr 1) ((pos, false) :: acc)
    in
    let ds = go 0 v [] in
    if negative then List.map (fun (p, neg) -> (p, not neg)) ds else ds

  let digit_count v = List.length (digits v)

  (** Reconstruct the integer from its digits (used by tests). *)
  let value ds =
    List.fold_left
      (fun acc (pos, neg) ->
        let term = 1 lsl pos in
        if neg then acc - term else acc + term)
      0 ds
end

module Vhdl_ident = struct
  (** VHDL-93 identifiers, for the printers that write VHDL text. *)

  let reserved =
    String.split_on_char ' '
      "abs access after alias all and architecture array assert attribute \
       begin block body buffer bus case component configuration constant \
       disconnect downto else elsif end entity exit file for function \
       generate generic group guarded if impure in inertial inout is label \
       library linkage literal loop map mod nand new next nor not null of \
       on open or others out package port postponed procedure process pure \
       range record register reject rem report return rol ror select \
       severity signal shared sla sll sra srl subtype then to transport \
       type unaffected units until use variable wait when while with xnor \
       xor"

  let is_letter = function 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false
  let is_alnum c = is_letter c || match c with '0' .. '9' -> true | _ -> false

  (** A basic identifier: letter { [underline] letter_or_digit }, and not a
      reserved word (case-insensitively). *)
  let is_basic s =
    let n = String.length s in
    let rec ok i =
      i = n
      || (is_alnum s.[i] && ok (i + 1))
      || (s.[i] = '_' && i + 1 < n && is_alnum s.[i + 1] && ok (i + 1))
    in
    n > 0 && is_letter s.[0] && ok 1
    && not (List.mem (String.lowercase_ascii s) reserved)

  (** [s] itself when it is a basic identifier, otherwise the extended
      identifier [\s\] (inner backslashes doubled). *)
  let of_string s =
    if is_basic s then s
    else
      "\\"
      ^ String.concat "\\\\" (String.split_on_char '\\' s)
      ^ "\\"
end
