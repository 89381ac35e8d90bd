(* The pass manager and verification gate.  A recipe runs pass by pass;
   under the [Every_pass] policy each application is checked against its
   own input graph by differential simulation and rolled back on a
   mismatch (the rejection is recorded as a typed Hls_util.Failure, the
   recipe continues from the pre-pass graph); under [Sampled] one
   end-to-end check runs at the end and a mismatch rolls the whole
   recipe back.  Every application runs under a telemetry span with
   plan-size counters.

   Change detection compares the printed graph ({!Graph.to_string}, the
   text the sweep cache's digest is taken over): a pass that rebuilds an
   identical graph is recorded as not fired, costs no verification, and
   terminates repeat(...) fixpoints. *)

module Graph = Hls_dfg.Graph
module Failure = Hls_util.Failure

type entry = {
  e_pass : string;
  e_plan : Plan.t;
  e_fired : bool;  (** the graph actually changed *)
  e_accepted : bool;  (** false: rolled back by the verify gate *)
  e_verdict : string option;
      (** rendered {!Hls_check.verdict} when this application was checked *)
  e_failure : Failure.t option;  (** the typed rejection, when rolled back *)
}

type outcome = {
  graph : Graph.t;
  log : entry list;
  checks : int;  (** equivalence checks run *)
  rejected : int;  (** applications rolled back *)
}

exception
  Rejected of {
    pass : string;
    verdict : string;  (** rendered counterexample *)
  }

let () =
  Printexc.register_printer (function
    | Rejected { pass; verdict } ->
        Some
          (Printf.sprintf "transformation %S rejected by the verify gate: %s"
             pass verdict)
    | _ -> None)

let render_verdict v = Format.asprintf "%a" Hls_check.pp_verdict v

type state = {
  s_graph : Graph.t;
  s_text : string;  (** [s_graph]'s printed form *)
  s_log : entry list;  (** reversed *)
  s_checks : int;
  s_rejected : int;
}

let span name f = Hls_telemetry.with_span ~cat:"xform" name f

let apply_pass ~policy ~samples ~seed st (p : Pass.t) =
  span p.Pass.name (fun () ->
      Hls_telemetry.count "xform.passes";
      let r = p.Pass.rewrite st.s_graph in
      let text = Graph.to_string r.Pass.graph in
      if String.equal text st.s_text then
        (* Nothing changed (possibly an identical rebuild): no plan, no
           verification, and repeat() fixpoints see no progress. *)
        let plan =
          Plan.make ~pass:p.Pass.name ~sites:[] ~before:st.s_graph
            ~after:st.s_graph
        in
        {
          st with
          s_log =
            {
              e_pass = p.Pass.name;
              e_plan = plan;
              e_fired = false;
              e_accepted = true;
              e_verdict = None;
              e_failure = None;
            }
            :: st.s_log;
        }
      else begin
        let plan =
          Plan.make ~pass:p.Pass.name ~sites:r.Pass.sites ~before:st.s_graph
            ~after:r.Pass.graph
        in
        Hls_telemetry.count ~n:(List.length r.Pass.sites) "xform.sites";
        Hls_telemetry.count
          ~n:(abs (plan.Plan.nodes_after - plan.Plan.nodes_before))
          "xform.nodes_delta";
        let verdict =
          match policy with
          | Verify.Every_pass ->
              Hls_telemetry.count "xform.checks";
              Some (Hls_check.equivalent ~samples ~seed st.s_graph r.Pass.graph)
          | Verify.Off | Verify.Sampled -> None
        in
        let checks = st.s_checks + if verdict = None then 0 else 1 in
        match verdict with
        | Some (Hls_check.Failed _ as v) ->
            (* Roll back: keep the pre-pass graph, surface the typed
               failure in the log. *)
            Hls_telemetry.count "xform.rejected";
            let rendered = render_verdict v in
            {
              st with
              s_checks = checks;
              s_rejected = st.s_rejected + 1;
              s_log =
                {
                  e_pass = p.Pass.name;
                  e_plan = plan;
                  e_fired = true;
                  e_accepted = false;
                  e_verdict = Some rendered;
                  e_failure =
                    Some
                      (Failure.Internal
                         (Rejected { pass = p.Pass.name; verdict = rendered }));
                }
                :: st.s_log;
            }
        | (Some (Hls_check.Proved | Hls_check.Passed _) | None) as v ->
            {
              s_graph = r.Pass.graph;
              s_text = text;
              s_checks = checks;
              s_rejected = st.s_rejected;
              s_log =
                {
                  e_pass = p.Pass.name;
                  e_plan = plan;
                  e_fired = true;
                  e_accepted = true;
                  e_verdict = Option.map render_verdict v;
                  e_failure = None;
                }
                :: st.s_log;
            }
      end)

let max_rounds = 8

let rec apply_steps ~policy ~samples ~seed st steps =
  List.fold_left
    (fun st step ->
      match step with
      | Recipe.Apply p -> apply_pass ~policy ~samples ~seed st p
      | Recipe.Repeat body ->
          let rec go st round =
            if round >= max_rounds then st
            else
              let st' = apply_steps ~policy ~samples ~seed st body in
              if String.equal st'.s_text st.s_text then st'
              else go st' (round + 1)
          in
          go st 0)
    st steps

let apply ?(policy = Verify.Off) ?(samples = 40) ?(seed = 9)
    (recipe : Recipe.t) g0 =
  span "recipe" (fun () ->
      let st0 =
        {
          s_graph = g0;
          s_text = Graph.to_string g0;
          s_log = [];
          s_checks = 0;
          s_rejected = 0;
        }
      in
      let st = apply_steps ~policy ~samples ~seed st0 recipe.Recipe.steps in
      (* The sampled policy checks the whole recipe once, end to end, and
         rolls everything back on a mismatch. *)
      let st =
        if
          policy = Verify.Sampled
          && not (String.equal st.s_text st0.s_text)
        then begin
          Hls_telemetry.count "xform.checks";
          let v = Hls_check.equivalent ~samples ~seed g0 st.s_graph in
          let rendered = render_verdict v in
          let plan =
            Plan.make ~pass:"verify" ~sites:[] ~before:g0 ~after:st.s_graph
          in
          match v with
          | Hls_check.Proved | Hls_check.Passed _ ->
              {
                st with
                s_checks = st.s_checks + 1;
                s_log =
                  {
                    e_pass = "verify";
                    e_plan = plan;
                    e_fired = false;
                    e_accepted = true;
                    e_verdict = Some rendered;
                    e_failure = None;
                  }
                  :: st.s_log;
              }
          | Hls_check.Failed _ ->
              Hls_telemetry.count "xform.rejected";
              {
                s_graph = g0;
                s_text = st0.s_text;
                s_checks = st.s_checks + 1;
                s_rejected = st.s_rejected + 1;
                s_log =
                  {
                    e_pass = "verify";
                    e_plan = plan;
                    e_fired = false;
                    e_accepted = false;
                    e_verdict = Some rendered;
                    e_failure =
                      Some
                        (Failure.Internal
                           (Rejected { pass = recipe.Recipe.spec; verdict = rendered }));
                  }
                  :: st.s_log;
              }
        end
        else st
      in
      {
        graph = st.s_graph;
        log = List.rev st.s_log;
        checks = st.s_checks;
        rejected = st.s_rejected;
      })

(* Entries worth showing: everything that fired or was checked. *)
let fired_entries o = List.filter (fun e -> e.e_fired || e.e_verdict <> None) o.log

let pp_entry ppf e =
  Format.fprintf ppf "%s %a%s"
    (if not e.e_accepted then "REJECTED"
     else if e.e_fired then "applied "
     else "no-op   ")
    Plan.pp e.e_plan
    (match e.e_verdict with None -> "" | Some v -> " [" ^ v ^ "]")

let pp_log ppf o =
  match fired_entries o with
  | [] -> Format.pp_print_string ppf "no pass fired"
  | entries ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
        pp_entry ppf entries
