(** Allocation & binding for fragmented schedules: the "optimized
    specification" datapath.

    Adders are packed over operations with disjoint active-cycle sets
    (fragments of one operation merged per cycle); operand steering across
    cycles becomes multiplexers; storage is allocated at bit granularity —
    a result bit is stored only if some consumer reads it in a later cycle.
    On the paper's Fig. 2 example this reproduces Table I exactly: cycle 1
    stores C5, E4 and three carry-outs. *)

open Hls_dfg.Types

(** Key identifying the original operation a fragment belongs to. *)
val op_key : node -> string

(** The part of binding that depends only on the fragmented graph: its
    original operations, their fragments and the interned operand-port
    configurations.  Build it once per fragmented graph and pass it to
    every binding of a schedule of that graph; it is read-only, so
    domains may share it.  Without [?view] each call builds its own.
    Passing a view built from another graph than the schedule's
    (physical equality) raises [Invalid_argument]. *)
type view

(** The view of the schedule's fragmented graph (span [bind.view]). *)
val view : Hls_sched.Frag_sched.t -> view

type stored_run = {
  sr_node : int;  (** node id *)
  sr_lo : int;  (** lowest stored bit *)
  sr_width : int;
  sr_from : int;  (** first cycle the run must be held in *)
  sr_to : int;  (** last cycle it is read in *)
}

(** Per-bit storage decisions: maximal runs of consecutive result bits with
    identical storage intervals.  The cycle-accurate RTL simulator checks
    every cross-cycle read against this set. *)
val stored_runs : Hls_sched.Frag_sched.t -> stored_run list

(** Left-edge-packed registers over the stored runs. *)
val registers : ?view:view -> Hls_sched.Frag_sched.t -> Lifetime.register list

(** The packed adders with the fragment nodes bound to each — the physical
    sharing structure the netlist elaborator realizes. *)
val dedicated_fus :
  ?view:view -> Hls_sched.Frag_sched.t -> (Datapath.fu * node list) list

(** Build the optimized datapath summary from a fragment schedule:
    {!view} when none is given, then the packer (span [bind.pack]) and
    the storage pass (span [bind.storage]). *)
val bind : ?view:view -> Hls_sched.Frag_sched.t -> Datapath.t
