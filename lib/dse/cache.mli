(** Content-hash memoization for design-space sweeps, crash-safe.

    Entries are keyed on (graph digest, job parameter string) and hold the
    scalar metrics of a {!Hls_core.Pipeline.report}.  Optionally backed by
    a JSON file for incremental re-runs; floats round-trip exactly, so a
    hit reproduces the original metrics byte-for-byte.

    On-disk state is three files around [path]: the JSON store itself, an
    append-only journal [path.wal] ({!journal} appends and fsyncs each
    batch; {!create} replays it; {!flush} compacts it into the store and
    deletes it), and an advisory lock [path.lock] held from {!create} to
    {!close} so two processes cannot interleave writes to one store.

    The cache is coordinator-only (looked up before dispatch, filled after
    collection), so it needs no in-process locking even under a parallel
    sweep. *)

type metrics = {
  m_flow : string;
  m_latency : int;
  m_cycle_delta : int;
  m_cycle_ns : float;
  m_execution_ns : float;
  m_op_count : int;
  m_fragment_count : int;
  m_fu_gates : int;
  m_register_gates : int;
  m_mux_gates : int;
  m_controller_gates : int;
  m_total_gates : int;
}

val metrics_of_report : Hls_core.Pipeline.report -> metrics

(** The one wire shape of {!metrics}: cache store, journal, sweep
    documents and api reports all use it. *)
val metrics_codec : metrics Codec.t

val metrics_to_json : metrics -> Dse_json.t
val metrics_of_json : Dse_json.t -> metrics option

type t

(** Raised by {!create} when another live process holds the store's
    advisory lock (the argument is the lock-file path).  A lock left by a
    dead process is reclaimed silently. *)
exception Locked of string

(** [create ?path ()] — with [path], the advisory lock is taken (raising
    {!Locked} if another live process holds it), existing entries are
    loaded from the file, the journal [path.wal] is replayed, and {!flush}
    writes back atomically; without [path], the cache is memory-only.  A
    missing store starts empty; a corrupt store or journal starts from
    whatever parses and records the damage in {!load_warnings} instead of
    failing the sweep. *)
val create : ?path:string -> unit -> t

(** MD5 of the graph's full printed form ({!Hls_dfg.Graph.digest}): any
    edit to the specification changes the digest and invalidates its
    entries.  A graph returned by {!Hls_workloads.Catalog.find_graph}
    answers from the digest kept beside it. *)
val graph_digest : Hls_dfg.Graph.t -> string

val key : graph_digest:string -> job_key:string -> string

(** Counted lookup: updates the hit/miss statistics. *)
val find : t -> string -> metrics option

(** Uncounted membership test. *)
val mem : t -> string -> bool

val add : t -> string -> metrics -> unit
val length : t -> int
val hits : t -> int
val misses : t -> int

(** Damage found while loading the store or replaying the journal
    (malformed entries skipped, unparseable files started empty), oldest
    first; [[]] when the load was clean. *)
val load_warnings : t -> string list

(** Entries recovered by replaying the journal at {!create} time — the
    points an interrupted sweep does not have to recompute. *)
val recovered : t -> int

val to_json : t -> Dse_json.t

(** Append the entries {!add}ed since the last call to the write-ahead
    journal [path.wal] and fsync it: after [journal t] returns, a crash
    loses nothing the sweep has computed.  No-op when memory-only. *)
val journal : t -> unit

(** Write the store back to its file — journal the stragglers, write to
    [path.tmp] under [Fun.protect] (no stale temp file on an exception),
    fsync, atomically rename, then drop the compacted journal.  No-op when
    memory-only or unchanged. *)
val flush : t -> unit

(** Drop the advisory lock without flushing: crash simulation in tests,
    or abandoning a cache another process should take over.  Idempotent;
    the cache must not be written through afterwards. *)
val release : t -> unit

(** {!flush} then {!release} — the normal end of a sweep's cache
    lifetime.  The lock is released even if the flush raises. *)
val close : t -> unit
