(* The plan record carried by every pass application: sites matched in
   the input graph plus the node-count and behavioural-depth effect.
   Depth counts behavioural operations only (glue is free), mirroring the
   chained-addition delay metric the scheduler optimizes. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph

type site = { at : node_id; note : string }

type t = {
  pass : string;
  sites : site list;
  nodes_before : int;
  nodes_after : int;
  depth_before : int;
  depth_after : int;
}

let node_depths g =
  let d = Array.make (max 1 (Graph.node_count g)) 0 in
  Graph.iter_nodes
    (fun n ->
      let base =
        List.fold_left
          (fun acc (o : operand) ->
            match o.src with Node id -> max acc d.(id) | _ -> acc)
          0 n.operands
      in
      d.(n.id) <- (base + if is_behavioural n.kind then 1 else 0))
    g;
  d

let depth g =
  let d = node_depths g in
  List.fold_left
    (fun acc (_, (o : operand)) ->
      match o.src with Node id -> max acc d.(id) | _ -> acc)
    0 g.Graph.outputs

let make ~pass ~sites ~before ~after =
  {
    pass;
    sites;
    nodes_before = Graph.node_count before;
    nodes_after = Graph.node_count after;
    depth_before = depth before;
    depth_after = depth after;
  }

let fired t = t.sites <> [] || t.nodes_before <> t.nodes_after

let pp ppf t =
  Format.fprintf ppf "%s: %d site%s, nodes %d -> %d, depth %d -> %d" t.pass
    (List.length t.sites)
    (if List.length t.sites = 1 then "" else "s")
    t.nodes_before t.nodes_after t.depth_before t.depth_after
