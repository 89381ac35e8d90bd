(** Feedback-guided iterative scheduling.

    One-shot fragment scheduling meets the latency it was asked for; it
    never asks whether a *smaller* latency would also have worked at the
    same clock tier.  This driver closes the loop: extract the critical
    region that is incompatible with one cycle fewer
    ({!Subgraph.extract}), re-plan and re-schedule at [latency - 1] with
    the same [n_bits] chaining budget and a chain cap at the incumbent's
    achieved peak — first with every fragment of an *untouched* original
    operation pinned to its incumbent cycle (small, local rework), then
    unpinned as a fallback — accept only strict improvements, and repeat
    until a round budget runs out, the greedy pass fails at the smaller
    latency, or a relaxation certificate ({!Subgraph.infeasible_witness})
    proves no schedule can fit fewer cycles.

    Acceptance is by construction monotone on both axes: an accepted
    round has one cycle fewer, and its [chain_cap] keeps the achieved
    chain (hence the clock) no longer than the incumbent's — so the
    final design is never slower than the one-shot in cycles, clock, or
    their product. *)

module Frag_sched = Hls_sched.Frag_sched
module Transform = Hls_fragment.Transform
module T = Hls_telemetry

type round = {
  r_index : int;  (** 1-based *)
  r_target : int;  (** latency attempted this round *)
  r_cap : int;  (** chain cap enforced (δ) *)
  r_region : int;  (** nodes in the extracted critical region *)
  r_region_adds : int;
  r_pinned : bool;
      (** the accepting attempt kept clean-op fragments pinned *)
  r_accepted : bool;
  r_latency : int;  (** best latency after the round *)
  r_delta : int;  (** best achieved chain after the round (δ) *)
}

type stop =
  | Budget  (** round budget exhausted with the last round accepted *)
  | Greedy_stuck  (** both attempts infeasible at the smaller latency *)
  | Certified
      (** relaxation witness proves one cycle fewer fits no schedule *)
  | Floor  (** latency is already 1 — nothing below it *)

type outcome = {
  o_initial_latency : int;
  o_final_latency : int;
  o_initial_delta : int;  (** one-shot achieved chain (δ) *)
  o_final_delta : int;
  o_rounds : round list;  (** chronological; both accepted and rejected *)
  o_stop : stop;
  o_schedule : Frag_sched.t;  (** the best schedule found *)
}

let stop_to_string = function
  | Budget -> "budget"
  | Greedy_stuck -> "greedy-stuck"
  | Certified -> "certified"
  | Floor -> "floor"

let saved_pct o =
  if o.o_initial_latency <= 0 then 0.0
  else
    100.0
    *. float_of_int (o.o_initial_latency - o.o_final_latency)
    /. float_of_int o.o_initial_latency

let improve ?(balance = true) ?(verify = false) ?(max_rounds = 8) ?policy
    ?net ?arrival (s0 : Frag_sched.t) =
  let source = s0.Frag_sched.transformed.Transform.source in
  let n_bits = s0.Frag_sched.n_bits in
  let initial_latency = s0.Frag_sched.latency in
  let initial_delta = Frag_sched.used_delta s0 in
  (* Re-plan the source kernel at [target] cycles, same chaining budget,
     and build the re-planned graph's net once for both attempts.
     [net]/[arrival] belong to the source kernel and are latency-
     independent, so one pair serves every round. *)
  let replan target =
    match Transform.run ~n_bits ?policy ?net ?arrival source ~latency:target with
    | tr -> Some (tr, Hls_timing.Bitnet.build tr.Transform.graph)
    | exception e -> (
        match Hls_fragment.Mobility.infeasibility_of_exn e with
        | Some _ -> None
        | None -> raise e)
  in
  let attempt ~cap ~pin (tr, net) =
    match
      T.with_span "iter.schedule" (fun () ->
          Frag_sched.schedule ~balance ~chain_cap:cap ?pin ~net tr)
    with
    | s ->
        (* The independent from-scratch checker stays in the loop as the
           oracle: a schedule it rejects is a greedy failure, never an
           accepted round. *)
        if verify then
          match Frag_sched.verify s with Ok () -> Some s | Error _ -> None
        else Some s
    | exception Frag_sched.Infeasible _ -> None
  in
  let finish best rounds stop =
    let o =
      {
        o_initial_latency = initial_latency;
        o_final_latency = best.Frag_sched.latency;
        o_initial_delta = initial_delta;
        o_final_delta = Frag_sched.used_delta best;
        o_rounds = List.rev rounds;
        o_stop = stop;
        o_schedule = best;
      }
    in
    T.gauge "iter.saved_pct" (saved_pct o);
    o
  in
  (* One round from [best] at [target]: [Ok (s', round)] when a strictly
     shorter schedule was found, [Error (round, stop)] otherwise. *)
  let round best ~target idx =
    let cap = max 1 (Frag_sched.used_delta best) in
    let sg =
      T.with_span "iter.extract" (fun () -> Subgraph.extract best ~target)
    in
    T.gauge "iter.region_nodes" (float_of_int (Subgraph.size sg));
    let record ~pinned ~accepted after =
      {
        r_index = idx;
        r_target = target;
        r_cap = cap;
        r_region = Subgraph.size sg;
        r_region_adds = sg.Subgraph.region_adds;
        r_pinned = pinned;
        r_accepted = accepted;
        r_latency = after.Frag_sched.latency;
        r_delta = Frag_sched.used_delta after;
      }
    in
    let reject stop =
      T.count "iter.rejected";
      Error (record ~pinned:false ~accepted:false best, stop)
    in
    match
      T.with_span "iter.witness" (fun () -> Subgraph.infeasible_witness sg)
    with
    | Some _ -> reject Certified
    | None -> (
        match T.with_span "iter.replan" (fun () -> replan target) with
        | None -> reject Greedy_stuck
        | Some ((tr, _) as planned) -> (
            let pin = Subgraph.pin_for sg tr.Transform.graph in
            let pinned, result =
              match attempt ~cap ~pin:(Some pin) planned with
              | Some s -> (true, Some s)
              | None -> (false, attempt ~cap ~pin:None planned)
            in
            match result with
            | Some s' ->
                T.count "iter.accepted";
                Ok (s', record ~pinned ~accepted:true s')
            | None -> reject Greedy_stuck))
  in
  (* Each round's span closes before the next round opens. *)
  let rec loop best rounds idx =
    if idx > max_rounds then finish best rounds Budget
    else
      let target = best.Frag_sched.latency - 1 in
      if target < 1 then finish best rounds Floor
      else
        match T.with_span "iter.round" (fun () -> round best ~target idx) with
        | Ok (s', r) -> loop s' (r :: rounds) (idx + 1)
        | Error (r, stop) -> finish best (r :: rounds) stop
  in
  loop s0 [] 1

let run ?balance ?verify ?max_rounds ?policy ?net ?arrival
    (tr : Transform.t) =
  improve ?balance ?verify ?max_rounds ?policy ?net ?arrival
    (Frag_sched.schedule ?balance tr)

let pp_round ppf r =
  Format.fprintf ppf
    "round %d: target %d cycles (cap %d δ), region %d (%d adds) — %s at %d \
     cycles / %d δ%s"
    r.r_index r.r_target r.r_cap r.r_region r.r_region_adds
    (if r.r_accepted then "accepted" else "rejected")
    r.r_latency r.r_delta
    (if r.r_accepted && not r.r_pinned then " (unpinned)" else "")

let pp ppf o =
  Format.fprintf ppf
    "@[<v>%a@ %d -> %d cycles (%.1f%% saved), chain %d -> %d δ, stop: %s@]"
    (Format.pp_print_list pp_round)
    o.o_rounds o.o_initial_latency o.o_final_latency (saved_pct o)
    o.o_initial_delta o.o_final_delta
    (stop_to_string o.o_stop)
