(* Host speed.  The benchmark runs on a few cores of a shared host whose
   speed drifts by a fifth or more over tens of seconds as other tenants
   come and go, which no run length averages away.  So a fixed kernel,
   part of the benchmark and unrelated to the program under test, is
   timed between batches of ops, and every time the benchmark reports is
   divided by the host's [speed] around it: the kernel's time over
   [reference_ms].  The reported times are then what the ops would take
   on a host that runs the kernel in [reference_ms]; the program cannot
   change the kernel, so a faster program shows in full. *)

(* The kernel does what the pipeline does most: walks a random DAG held
   in arrays and lists, fills and reads a hash table, and sorts, so that
   it slows with the host the way the program does (memory as well as
   arithmetic). *)
let kernel () =
  let n = 3000 in
  let st = Random.State.make [| 42 |] in
  let preds =
    Array.init n (fun i ->
        if i = 0 then [] else List.init 3 (fun _ -> Random.State.int st i))
  in
  let depth = Array.make n 0 in
  for i = 0 to n - 1 do
    depth.(i) <- List.fold_left (fun m p -> max m (depth.(p) + 1)) 0 preds.(i)
  done;
  let h = Hashtbl.create 64 in
  Array.iteri (fun i d -> Hashtbl.replace h ((i * 7919) land 0xffff) (d, i)) depth;
  let l = List.sort compare (Hashtbl.fold (fun k v acc -> (v, k) :: acc) h []) in
  List.length l

(* The kernel's median time on an unloaded 2-core x86-64 host; reported
   times are scaled to it. *)
let reference_ms = 2.0

let reps = 9

let median_ms () =
  let times =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (kernel ()));
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  List.nth (List.sort compare times) (reps / 2)

(* The host's current speed: the median of [reps] kernel runs over
   [reference_ms] (above 1 when the host is slower than the reference).
   With [cores] above 1 the kernel runs on that many domains at once and
   the speed is their mean: for work spread over other processes, which
   may run on any core. *)
let speed ?(cores = 1) () =
  let others = List.init (cores - 1) (fun _ -> Domain.spawn median_ms) in
  let mine = median_ms () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0. all /. float_of_int cores /. reference_ms
