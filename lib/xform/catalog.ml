(* The transformation catalog: every pass a recipe can name.  The
   presynthesis cleanup passes ({!Cleanup} and [Rewrite.prune]) are
   wrapped as siteless entries (they predate the plan machinery; their
   node-count effect still lands in the plan); the native entries report
   their sites. *)

let wrap name doc f =
  { Pass.name; doc; rewrite = (fun g -> { Pass.graph = f g; sites = [] }) }

let fold =
  wrap "fold" "constant folding and algebraic simplification" Cleanup.fold

let cse = wrap "cse" "common-subexpression elimination" Cleanup.cse
let dce = wrap "dce" "dead-code elimination" Hls_dfg.Rewrite.prune

let normalize =
  wrap "normalize" "fold+cse+dce iterated to a fixed point" Cleanup.normalize

let canon =
  {
    Pass.name = "canon";
    doc = "order commutative operands, elide identity wires";
    rewrite = Canon.run;
  }

let strength =
  {
    Pass.name = "strength";
    doc = "constant multipliers -> balanced CSD shift/add networks";
    rewrite = Strength.run;
  }

let balance =
  {
    Pass.name = "balance";
    doc = "reassociate add/mul chains into depth-balanced trees";
    rewrite = Balance.run;
  }

let all = [ canon; fold; cse; dce; normalize; strength; balance ]
let find name = List.find_opt (fun p -> String.equal p.Pass.name name) all
let names () = List.map (fun p -> p.Pass.name) all
