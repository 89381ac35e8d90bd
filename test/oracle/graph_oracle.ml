(** The graph printer as it was before the Buffer writer
    ([Hls_dfg.Graph.to_string]) replaced it, kept verbatim as an oracle:
    [Format] boxes and [%d] conversions for the graph, its nodes, its
    operands ([Hls_dfg.Operand.pp]) and its constants
    ([Hls_bitvec.pp]), the digest over that text, and the change
    detection of the recipe engine ({!engine_apply}: the pre-rewrite
    [Hls_xform.Engine.apply], comparing the MD5 of the [Format] text
    after every pass).

    The test suite checks the writer, [Hls_dfg.Graph.digest] and
    [Hls_xform.Engine.apply] against these byte for byte and entry for
    entry; [bench timing] prices the writer against {!pp}. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph

(* ---- the Format printer ---- *)

let pp_bitvec ppf bv =
  Format.fprintf ppf "%db'%s" (Hls_bitvec.width bv) (Hls_bitvec.to_string bv)

let pp_source ppf = function
  | Input s -> Format.fprintf ppf "%s" s
  | Node id -> Format.fprintf ppf "n%d" id
  | Const bv -> pp_bitvec ppf bv

let pp_operand ppf (o : operand) =
  Format.fprintf ppf "%a[%d:%d]%s" pp_source o.src o.hi o.lo
    (match o.ext with Zext -> "" | Sext -> "s")

let pp_node t ppf (n : node) =
  ignore t;
  Format.fprintf ppf "n%d%s: %s/%d %s <- %a" n.id
    (if n.label = "" then "" else Printf.sprintf "(%s)" n.label)
    (kind_to_string n.kind) n.width
    (match n.signedness with Unsigned -> "u" | Signed -> "s")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_operand)
    n.operands

let pp ppf (t : Graph.t) =
  Format.fprintf ppf "@[<v>graph %s@ inputs: %a@ " t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf p -> Format.fprintf ppf "%s/%d" p.port_name p.port_width))
    t.inputs;
  Array.iter (fun n -> Format.fprintf ppf "%a@ " (pp_node t) n) t.nodes;
  Format.fprintf ppf "outputs: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (name, o) -> Format.fprintf ppf "%s <- %a" name pp_operand o))
    t.outputs

let to_string t = Format.asprintf "%a" pp t

let digest (t : Graph.t) =
  Digest.to_hex (Digest.string (t.name ^ "\n" ^ Format.asprintf "%a" pp t))

(* ---- the recipe engine's change detection ---- *)

module Engine = Hls_xform.Engine
module Plan = Hls_xform.Plan
module Pass = Hls_xform.Pass
module Recipe = Hls_xform.Recipe
module Verify = Hls_xform.Verify
module Failure = Hls_util.Failure

let engine_digest g = Digest.to_hex (Digest.string (Format.asprintf "%a@." pp g))

let render_verdict v = Format.asprintf "%a" Hls_check.pp_verdict v

type state = {
  s_graph : Graph.t;
  s_digest : string;
  s_log : Engine.entry list;  (** reversed *)
  s_checks : int;
  s_rejected : int;
}

let entry ~pass ~plan ~fired ~accepted ~verdict ~failure =
  {
    Engine.e_pass = pass;
    e_plan = plan;
    e_fired = fired;
    e_accepted = accepted;
    e_verdict = verdict;
    e_failure = failure;
  }

let apply_pass ~policy ~samples ~seed st (p : Pass.t) =
  let r = p.Pass.rewrite st.s_graph in
  let d' = engine_digest r.Pass.graph in
  if String.equal d' st.s_digest then
    let plan =
      Plan.make ~pass:p.Pass.name ~sites:[] ~before:st.s_graph
        ~after:st.s_graph
    in
    {
      st with
      s_log =
        entry ~pass:p.Pass.name ~plan ~fired:false ~accepted:true
          ~verdict:None ~failure:None
        :: st.s_log;
    }
  else begin
    let plan =
      Plan.make ~pass:p.Pass.name ~sites:r.Pass.sites ~before:st.s_graph
        ~after:r.Pass.graph
    in
    let verdict =
      match policy with
      | Verify.Every_pass ->
          Some (Hls_check.equivalent ~samples ~seed st.s_graph r.Pass.graph)
      | Verify.Off | Verify.Sampled -> None
    in
    let checks = st.s_checks + if verdict = None then 0 else 1 in
    match verdict with
    | Some (Hls_check.Failed _ as v) ->
        let rendered = render_verdict v in
        {
          st with
          s_checks = checks;
          s_rejected = st.s_rejected + 1;
          s_log =
            entry ~pass:p.Pass.name ~plan ~fired:true ~accepted:false
              ~verdict:(Some rendered)
              ~failure:
                (Some
                   (Failure.Internal
                      (Engine.Rejected
                         { pass = p.Pass.name; verdict = rendered })))
            :: st.s_log;
        }
    | (Some (Hls_check.Proved | Hls_check.Passed _) | None) as v ->
        {
          s_graph = r.Pass.graph;
          s_digest = d';
          s_checks = checks;
          s_rejected = st.s_rejected;
          s_log =
            entry ~pass:p.Pass.name ~plan ~fired:true ~accepted:true
              ~verdict:(Option.map render_verdict v) ~failure:None
            :: st.s_log;
        }
  end

let rec apply_steps ~policy ~samples ~seed st steps =
  List.fold_left
    (fun st step ->
      match step with
      | Recipe.Apply p -> apply_pass ~policy ~samples ~seed st p
      | Recipe.Repeat body ->
          let rec go st round =
            if round >= Engine.max_rounds then st
            else
              let st' = apply_steps ~policy ~samples ~seed st body in
              if String.equal st'.s_digest st.s_digest then st'
              else go st' (round + 1)
          in
          go st 0)
    st steps

(** [Hls_xform.Engine.apply] as it was, telemetry left out. *)
let engine_apply ?(policy = Verify.Off) ?(samples = 40) ?(seed = 9)
    (recipe : Recipe.t) g0 =
  let st0 =
    {
      s_graph = g0;
      s_digest = engine_digest g0;
      s_log = [];
      s_checks = 0;
      s_rejected = 0;
    }
  in
  let st = apply_steps ~policy ~samples ~seed st0 recipe.Recipe.steps in
  let st =
    if policy = Verify.Sampled && not (String.equal st.s_digest st0.s_digest)
    then begin
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
              entry ~pass:"verify" ~plan ~fired:false ~accepted:true
                ~verdict:(Some rendered) ~failure:None
              :: st.s_log;
          }
      | Hls_check.Failed _ ->
          {
            s_graph = g0;
            s_digest = st0.s_digest;
            s_checks = st.s_checks + 1;
            s_rejected = st.s_rejected + 1;
            s_log =
              entry ~pass:"verify" ~plan ~fired:false ~accepted:false
                ~verdict:(Some rendered)
                ~failure:
                  (Some
                     (Failure.Internal
                        (Engine.Rejected
                           { pass = recipe.Recipe.spec; verdict = rendered })))
              :: st.s_log;
          }
    end
    else st
  in
  {
    Engine.graph = st.s_graph;
    log = List.rev st.s_log;
    checks = st.s_checks;
    rejected = st.s_rejected;
  }
