(* The shared graph rebuild: the identity rewrite reproduces its input,
   pruning keeps exactly the nodes that reach an output, and kernel
   extraction and fragmentation of every registry workload hash to the
   digests recorded before they moved onto [Rewrite.run]. *)

open Hls_dfg.Types
module Graph = Hls_dfg.Graph
module Rewrite = Hls_dfg.Rewrite
module Catalog = Hls_workloads.Catalog

let same_graph (a : Graph.t) (b : Graph.t) =
  Graph.name a = Graph.name b
  && a.Graph.inputs = b.Graph.inputs
  && a.Graph.outputs = b.Graph.outputs
  && a.Graph.nodes = b.Graph.nodes

(* Nodes whose value reaches an output port, by one reverse sweep over
   the topological order. *)
let reaching g =
  let live = Array.make (Graph.node_count g) false in
  let mark (o : operand) =
    match o.src with Node id -> live.(id) <- true | Input _ | Const _ -> ()
  in
  List.iter (fun (_, o) -> mark o) g.Graph.outputs;
  for id = Graph.node_count g - 1 downto 0 do
    if live.(id) then List.iter mark (Graph.node g id).operands
  done;
  live

let shape (n : node) = (n.kind, n.width, n.signedness, n.label, n.origin)

(* Random DAGs and their raw kernel lowerings, each also with only its
   first output kept, so that the pruning properties have dead nodes to
   find. *)
let graphs seed =
  let g = Hls_workloads.Random_dfg.generate ~seed () in
  let first_output (g : Graph.t) =
    {
      g with
      Graph.outputs = [ List.hd g.Graph.outputs ];
      cached_index = Atomic.make None;
    }
  in
  List.concat_map
    (fun g -> [ g; first_output g ])
    [ g; Hls_kernel.Extract.extract g ]

let prop_copy_is_identity =
  QCheck.Test.make ~name:"run ~f:copy reproduces the graph" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      List.for_all
        (fun g -> same_graph (Rewrite.run g ~f:Rewrite.copy) g)
        (graphs seed))

let prop_prune_idempotent =
  QCheck.Test.make ~name:"prune is idempotent" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      List.for_all
        (fun g ->
          let once = Rewrite.prune g in
          same_graph (Rewrite.prune once) once)
        (graphs seed))

let prop_prune_keeps_reaching =
  QCheck.Test.make ~name:"prune keeps exactly the nodes reaching an output"
    ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      List.for_all
        (fun g ->
          let live = reaching g in
          let kept =
            List.filter (fun (n : node) -> live.(n.id)) (Graph.nodes g)
          in
          let pruned = Rewrite.prune g in
          List.map shape (Graph.nodes pruned) = List.map shape kept
          && Array.for_all Fun.id (reaching pruned))
        (graphs seed))

(* Per workload: digests of [Extract.run], of [Transform.apply] at the
   workload's default latency, and of that transform's origins and
   windows (which [Graph.pp], and so [graph_digest], leaves out). *)
let golden =
  [
    ( "chain3",
      "37d2c0c9c6c1e40c7a6755465ea5f853",
      "589fabfd3bafdd82d2d92d6e643c362a",
      "6818a46748c2b6b24ef8a6f5fb173400" );
    ( "fig3",
      "529b4b5c5bb1f1513af014a2e37f80b0",
      "5b259805843f49b4b82b7eb9591282e4",
      "fdf5837a39831c115c4dd9258fab662a" );
    ( "elliptic",
      "8c513944e8585e3498af8ccdfc86e066",
      "a8d6c0be5838140033750a930c1f129d",
      "79291bd2916cfa0643b11b16cd73e9a4" );
    ( "diffeq",
      "d24ea83ac2662a61f8e69cbe369c4cb4",
      "a6e5fb028ff14ee1aa59f717cbd48f06",
      "e0c2948ca4e015e7712ab6cc6adb1444" );
    ( "iir4",
      "b38f7b2938fd6f22d603765627cc9b22",
      "ce3e487034e707b1b0422eb5dd7c2faa",
      "4e2e0673bcd450d3e49ca5eb0da8fc06" );
    ( "fir2",
      "e367aed4f18a00868fd0e07d8fd6d556",
      "0afb4a6eb9ca4b55f855869817eeb135",
      "f4f7f5eba9b953e6b4e4f1cca7745b1b" );
    ( "fir8",
      "f999461d6b63aaa4658b13e3637bdc61",
      "5b18f80de78ba0f4715834e8266ffaa6",
      "f10a75db04f4fbaa9c13de914021b51b" );
    ( "iir2",
      "673ac20bdbb4560d3555c049bf8a497d",
      "c35580928acd9dcbea8d0a73f1f3669c",
      "8314be84f9ee4e56f70e0ee720449ed3" );
    ( "butterfly4",
      "82771e3d7912c0f71dbd94c94caea38d",
      "3438f7fd53dfd0831641923694c50eac",
      "679f2cc1a49de660cfd358f9dee4276e" );
    ( "fletcher16",
      "1d329477d7a26d636ae8c1b0a06949ee",
      "f4cbcaa9feacdcd50ff81136e69cbe17",
      "3dfffcf2622e40f1a81ba6186bc45f8d" );
    ( "adpcm-iaq",
      "979ee4ca664120e525db430c83705b1a",
      "ae9352bb6b4fb2ef4271934602a73e44",
      "fdc345bb4fb7c83a05e8898564b0ef0c" );
    ( "adpcm-ttd",
      "84b315de194a0f1d3f19190144c94613",
      "ea1efe6807f4631e92a32cf8e522984b",
      "ba83062e042888c3b30e0682e69e48e8" );
    ( "adpcm-opfc-sca",
      "b1ff3c1df63bd86f7e5462fa1712f3b3",
      "336e65f67be483285e996926ccfea25c",
      "12ece897e72ba99b8a7b7ce5bffffbaa" );
    ( "adpcm-decoder",
      "0e6bc901035c683a2d3d86e32decae44",
      "16733d289d930aebeae33c25ad472ba5",
      "e2ac6c3ca9591221aa0228189367794e" );
    ( "ar-lattice",
      "8ce061926fdd6b7d36f1f83d4685b7f4",
      "121ef0a6eaecc9ca48b8eabf876fc585",
      "9a28beb19d57982b1bb0b9059cc43852" );
    ( "dct8",
      "94b57c50060dc6c1545ca95fd6bd0208",
      "6ac3017d75bded1d8789ea7bf081b515",
      "7038d859002c6cea2698974076ec8d33" );
    ( "random240",
      "8d533001caab89c156cbe7a95b5ea79f",
      "2c4f4b4936bebb2ecb2a38553bfeefc1",
      "6a5bf967ed2e087a6ce2e81358d994e3" );
    ( "random480",
      "ae073df0090962949c3199622cba966f",
      "f400bc1bbcdc13c635d7a3dfe0a112fd",
      "9986f1941a0d1db2632f73c140cec11f" );
  ]

let meta_digest_of (tr : Hls_fragment.Transform.t) =
  let b = Buffer.create 1024 in
  Graph.iter_nodes
    (fun n ->
      match n.origin with
      | Some o -> Printf.bprintf b "%s:%d:%d;" o.orig_op o.orig_lo o.orig_hi
      | None -> Buffer.add_string b "-;")
    tr.Hls_fragment.Transform.graph;
  Array.iter (fun (a, l) -> Printf.bprintf b "%d,%d;" a l) tr.windows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_digests () =
  Alcotest.(check (list string))
    "every registry workload pinned" (Catalog.names ())
    (List.map (fun (name, _, _, _) -> name) golden);
  List.iter
    (fun (name, kernel_digest, frag_digest, meta_digest) ->
      let e = Option.get (Catalog.find name) in
      let kernel = Hls_kernel.Extract.run (Catalog.graph e) in
      let plan =
        Hls_fragment.Mobility.compute kernel ~latency:e.Catalog.default_latency
      in
      let tr = Hls_fragment.Transform.apply kernel plan in
      Alcotest.(check string)
        (name ^ " kernel") kernel_digest
        (Hls_dse.Cache.graph_digest kernel);
      Alcotest.(check string)
        (name ^ " fragmented") frag_digest
        (Hls_dse.Cache.graph_digest tr.Hls_fragment.Transform.graph);
      Alcotest.(check string)
        (name ^ " origins and windows") meta_digest (meta_digest_of tr))
    golden

let suite =
  [ Alcotest.test_case "golden extract/fragment digests" `Quick
      test_golden_digests ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_copy_is_identity; prop_prune_idempotent; prop_prune_keeps_reaching;
      ]
