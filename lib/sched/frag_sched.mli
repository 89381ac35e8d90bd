(** Conventional scheduler for transformed (fragmented) specifications
    (paper §3.3 / Fig. 3 g).

    Places every addition fragment in a feasible cycle of its
    (ASAP, ALAP) window, balancing per-cycle adder usage (or taking the
    earliest cycle when [balance] is off).  Fragments of one original
    operation may land in unconsecutive cycles, and a result bit can be
    consumed in the very cycle it is produced.  Deadline analysis is capped
    by the fragment windows so greedy choices never strand a successor. *)

type bit_time = { bt_cycle : int; bt_slot : int }
(** When a bit settles: δ slot [bt_slot] (1-based) of cycle [bt_cycle];
    slot 0 means "stable at cycle start". *)

(** A placed schedule.  Bit times are stored flat, in the layout of
    [net]: bit [bit] of node [id] lives at index
    [net.bit_base.(id) + bit] of both [bit_cycle] and [bit_slot], so the
    scheduler, {!used_delta}, the binder's storage runs and the critical
    region walk of the iteration driver read plain [int] arrays.  Other
    readers go through {!bit_time}. *)
type t = {
  transformed : Hls_fragment.Transform.t;
  latency : int;
  n_bits : int;
  cycle_of : int array;  (** cycle of each Add node; 0 for glue *)
  bit_cycle : int array;  (** per flat bit: the cycle it settles in *)
  bit_slot : int array;
      (** per flat bit: the δ slot it settles at; 0 = stable at cycle
          start *)
  net : Hls_timing.Bitnet.t;
      (** dependency net of the transformed graph, shared with the binder *)
}

exception Infeasible of string

val graph : t -> Hls_dfg.Graph.t

(** [bit_time t id bit] — when bit [bit] of node [id] settles. *)
val bit_time : t -> Hls_dfg.Types.node_id -> int -> bit_time

(** Schedule a transformed specification; raises {!Infeasible} when some
    fragment has no feasible cycle in its window.  The feasibility probe
    runs on a prebuilt {!Hls_timing.Bitnet} ([net] when given, else built
    here).

    [chain_cap] tightens the per-cycle chaining budget below the clock
    period: no bit may settle later than δ slot [min chain_cap n_bits] of
    its cycle.  This is the iteration driver's lever — asking the greedy
    pass for a schedule whose achieved {!used_delta} beats the previous
    round.  Raises {!Infeasible} when the cap is below 1.

    [pin] restricts an Add fragment to a single candidate cycle
    ([pin id = Some c] narrows the window to [c] when [c] lies inside it;
    [None] leaves the window alone).  The iteration driver pins fragments
    outside the critical region so re-scheduling only moves the region
    under rework. *)
val schedule :
  ?balance:bool ->
  ?chain_cap:int ->
  ?pin:(Hls_dfg.Types.node_id -> int option) ->
  ?net:Hls_timing.Bitnet.t ->
  Hls_fragment.Transform.t ->
  t

(** Per-query {!Hls_timing.Bitdep.bit_deps} scheduler: the executable
    reference for property tests and benchmark baselines.  Produces the
    same placement as {!schedule}. *)
val schedule_reference : ?balance:bool -> Hls_fragment.Transform.t -> t

(** Longest chain actually used in any cycle — the achieved cycle length
    in δ (at most the budget). *)
val used_delta : t -> int

(** Add nodes placed in [cycle]. *)
val adds_in_cycle : t -> int -> Hls_dfg.Types.node list

type cycle_profile = {
  cp_cycle : int;
  cp_used_delta : int;  (** longest chain settled in this cycle *)
  cp_fragments : int;
  cp_adder_bits : int;  (** δ-costly bits executed in this cycle *)
}

(** Per-cycle usage report: chain occupation, fragment population and adder
    pressure. *)
val profile : t -> cycle_profile list

(** Independent checker of a fragment schedule. *)
val verify : t -> (unit, string) result

(** True when some original operation executes in non-consecutive cycles —
    the capability the paper claims unique to this method. *)
val has_unconsecutive_execution : t -> bool
