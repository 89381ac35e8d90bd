(** Lightweight observability for the synthesis pipeline and the DSE
    engine: hierarchical spans, counters and gauges behind a single global
    sink that is inert unless armed.

    Design discipline mirrors {!Hls_util.Faults}: every probe first reads
    one mutable record that normal runs never set, so the cost of a
    disabled probe on the hot path is a single load and branch.  Armed
    probes record under a mutex — workers are OCaml domains and spans can
    close concurrently — which is acceptable because arming is an explicit
    act of the measuring run, never the default.

    Two arming axes compose:

    - [metrics]: per-span-name call counts and total durations, counter
      totals and gauge last/max values accumulate in memory, readable via
      {!span_totals} / {!counter_total} / {!gauge_last} and rendered by
      {!metrics_summary}.
    - [trace]: every span close, counter bump, gauge set and instant event
      additionally appends a Chrome trace event ({!chrome_trace} /
      {!write_chrome_trace} produce a [chrome://tracing] /
      Perfetto-loadable JSON document).  Track ids are domain ids, so a
      DSE sweep naturally gets one track per worker domain.

    Timestamps come from one process-wide wall clock
    ([Unix.gettimeofday], rebased to the arming epoch); durations are
    clamped non-negative, so a stepping system clock can skew a trace but
    never produce an unloadable one.  (A raw OS monotonic clock needs C
    stubs this zero-dependency library deliberately avoids.) *)

(** Attribute values attached to spans and events; rendered into the
    trace event's [args] object. *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** [arm ?trace ?metrics ()] turns the sink on (defaults: metrics
    only).  Arming is idempotent and does not clear previously recorded
    data; use {!reset} for that.  The raw trace-event buffer holds at
    most {!max_events} events: later ones are counted by
    {!dropped_events} and not kept, so a traced long-running process
    (the request server) cannot grow it without bound. *)
val arm : ?trace:bool -> ?metrics:bool -> unit -> unit

(** Turn the sink fully off.  Recorded data is kept (a run typically
    disarms, then exports). *)
val disarm : unit -> unit

(** Drop every recorded event, counter, gauge and span total, and rebase
    the trace epoch to now. *)
val reset : unit -> unit

val armed : unit -> bool

(** [with_span ?cat ?attrs name f] runs [f] inside a span.  The span is
    closed (and its duration accounted) whether [f] returns or raises
    ([Fun.protect]), so traces stay balanced under exceptions.  At close,
    the GC is sampled into the [gc.major_words] (last) and
    [gc.top_heap_words] (max) gauges.  Disabled: exactly [f ()] after one
    branch. *)
val with_span :
  ?cat:string -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Spans currently open across all domains (0 when everything is
    balanced; used by tests). *)
val open_spans : unit -> int

(** [count ?n name] adds [n] (default 1) to counter [name]. *)
val count : ?n:int -> string -> unit

(** [gauge name v] records an instantaneous level (queue depth, heap
    words, utilization); last and max values are kept. *)
val gauge : string -> float -> unit

(** [event ?attrs name] records an instant event (e.g. a retry round). *)
val event : ?attrs:(string * value) list -> string -> unit

(** Name the current domain's track in the exported trace (thread
    metadata event), e.g. ["worker 3"]. *)
val name_track : string -> unit

(** Per-span-name (calls, total seconds), sorted by name. *)
val span_totals : unit -> (string * (int * float)) list

val counter_total : string -> int

(** All counters as (name, total), sorted by name. *)
val counter_totals : unit -> (string * int) list

val gauge_last : string -> float option

(** All gauges as (name, (last, max)), sorted by name. *)
val gauge_bindings : unit -> (string * (float * float)) list

(** Capacity of the trace-event buffer (a constant). *)
val max_events : int

(** Trace events not kept because the buffer was full, since the last
    {!reset}.  [hlsopt serve] reports it as the [trace_dropped] gauge of
    its [stats] answer. *)
val dropped_events : unit -> int

(** Recorded trace events (all kinds), oldest first: (name, track id).
    For tests; the JSON export is the real consumer surface. *)
val recorded_events : unit -> (string * int) list

(** The Chrome trace-event document as a JSON string:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)
val chrome_trace : unit -> string

val write_chrome_trace : string -> unit

(** Plain-text metrics report: span table, counter totals, gauge
    last/max.  Empty string when nothing was recorded. *)
val metrics_summary : unit -> string

(** Simple latency statistics over float samples (seconds, usually).
    Pure helpers — no arming required. *)
module Stats : sig
  (** [percentile samples p] is the nearest-rank percentile [p] (0..100)
      of [samples]; [nan] on the empty list. *)
  val percentile : float list -> float -> float

  val p50 : float list -> float
  val mean : float list -> float
end
