(* A design-space sweep, declaratively: lists of values per axis, expanded
   into the cartesian product of concrete jobs.  Axes mirror the knobs of
   the optimized flow (`Pipeline.run`): latency, fragmentation policy,
   technology library, scheduler balancing, behavioural transformation
   recipe.

   Expansion order is deterministic (latency-major, then policy, lib,
   balance, recipe), so sweep results are reproducible and independent of
   how many workers execute them. *)

type t = {
  latencies : int list;
  policies : Hls_fragment.Mobility.policy list;
  libs : (string * Hls_techlib.t) list;
  balance : bool list;
  recipes : string list;
  iterates : int list;
}

type job = {
  latency : int;
  policy : Hls_fragment.Mobility.policy;
  lib_name : string;
  lib : Hls_techlib.t;
  balance : bool;
  recipe : string;
  iterate : int;
}

type axis_error =
  | Empty_axis of string
  | Duplicate_value of { axis : string; value : string }
  | Bad_recipe of { spec : string; reason : string }

let axis_error_to_string = function
  | Empty_axis axis -> Printf.sprintf "empty %s axis" axis
  | Duplicate_value { axis; value } ->
      Printf.sprintf "duplicate value %s on the %s axis" value axis
  | Bad_recipe { spec = _; reason } -> reason

let pp_axis_error ppf e =
  Format.pp_print_string ppf (axis_error_to_string e)

(* Reject both degenerate axis shapes up front — an empty axis would
   silently produce zero jobs, a duplicated value would run (and cache)
   the same point twice under one key. *)
let checked_axis ~axis ~render values =
  match values with
  | [] -> Error (Empty_axis axis)
  | _ -> (
      let rec dup seen = function
        | [] -> None
        | v :: rest ->
            let r = render v in
            if List.mem r seen then Some r else dup (r :: seen) rest
      in
      match dup [] values with
      | Some value -> Error (Duplicate_value { axis; value })
      | None -> Ok ())

let make ?(latencies = [ 3; 4; 5; 6 ]) ?(policies = [ `Full ])
    ?(libs = [ ("ripple", Hls_techlib.default) ]) ?(balance = [ true ])
    ?(recipes = [ "none" ]) ?(iterates = [ 0 ]) () =
  let ( let* ) = Result.bind in
  let* () = checked_axis ~axis:"latency" ~render:string_of_int latencies in
  let* () =
    checked_axis ~axis:"policy"
      ~render:(function `Full -> "full" | `Coalesced -> "coalesced")
      policies
  in
  let* () = checked_axis ~axis:"library" ~render:fst libs in
  let* () = checked_axis ~axis:"balance" ~render:string_of_bool balance in
  let* () = checked_axis ~axis:"recipe" ~render:Fun.id recipes in
  let* () = checked_axis ~axis:"iterate" ~render:string_of_int iterates in
  let* () =
    List.fold_left
      (fun acc spec ->
        let* () = acc in
        match Hls_xform.Recipe.parse spec with
        | Ok _ -> Ok ()
        | Error reason -> Error (Bad_recipe { spec; reason }))
      (Ok ()) recipes
  in
  Ok { latencies; policies; libs; balance; recipes; iterates }

let size (s : t) =
  List.length s.latencies * List.length s.policies * List.length s.libs
  * List.length s.balance * List.length s.recipes * List.length s.iterates

let jobs (s : t) =
  List.concat_map
    (fun latency ->
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun (lib_name, lib) ->
              List.concat_map
                (fun balance ->
                  List.concat_map
                    (fun recipe ->
                      List.map
                        (fun iterate ->
                          { latency; policy; lib_name; lib; balance; recipe;
                            iterate })
                        s.iterates)
                    s.recipes)
                s.balance)
            s.libs)
        s.policies)
    (List.sort compare s.latencies)

let policy_name = function `Full -> "full" | `Coalesced -> "coalesced"

let policy_of_name = function
  | "full" -> Some `Full
  | "coalesced" -> Some `Coalesced
  | _ -> None

let policy_codec =
  Codec.enum ~expected:{|"full" or "coalesced"|} policy_name policy_of_name

let known_libs =
  [ ("ripple", Hls_techlib.default); ("cla", Hls_techlib.fast_cla) ]

let lib_of_name name = List.assoc_opt name known_libs

(* The canonical parameter string of a job: display label and the
   parameter half of the cache key, so it must mention every axis. *)
(* The [iter] suffix appears only when the job iterates, so one-shot keys
   are byte-identical to those of caches written before the axis existed. *)
let job_key j =
  Printf.sprintf "lat=%d policy=%s lib=%s balance=%b xform=%s%s" j.latency
    (policy_name j.policy) j.lib_name j.balance j.recipe
    (if j.iterate > 0 then Printf.sprintf " iter=%d" j.iterate else "")

(* Total order over the full parameter tuple (latency numerically first,
   then the remaining axes); the stable sort key that makes sweep reports
   reproducible whatever the round structure or worker count. *)
let compare_job a b =
  compare
    (a.latency, policy_name a.policy, a.lib_name, a.balance, a.recipe,
     a.iterate)
    (b.latency, policy_name b.policy, b.lib_name, b.balance, b.recipe,
     b.iterate)

(* Latency-axis specifications: "4", "2:6", "2:10:2", "3,5,7". *)
let parse_latencies spec =
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> Ok v
    | Some _ -> Error (Printf.sprintf "latency must be >= 1 in %S" spec)
    | None -> Error (Printf.sprintf "bad latency spec %S" spec)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' spec with
  | [ one ] -> (
      match String.split_on_char ',' one with
      | [ single ] ->
          let* v = int_of single in
          Ok [ v ]
      | parts ->
          List.fold_left
            (fun acc p ->
              let* acc = acc in
              let* v = int_of p in
              Ok (v :: acc))
            (Ok []) parts
          |> Result.map List.rev)
  | [ lo; hi ] | [ lo; hi; "" ] ->
      let* lo = int_of lo in
      let* hi = int_of hi in
      if hi < lo then Error (Printf.sprintf "empty latency range %S" spec)
      else Ok (List.init (hi - lo + 1) (fun i -> lo + i))
  | [ lo; hi; step ] ->
      let* lo = int_of lo in
      let* hi = int_of hi in
      let* step = int_of step in
      if hi < lo then Error (Printf.sprintf "empty latency range %S" spec)
      else
        let rec go acc v = if v > hi then List.rev acc else go (v :: acc) (v + step) in
        Ok (go [] lo)
  | _ -> Error (Printf.sprintf "bad latency spec %S (use N, LO:HI, LO:HI:STEP or a,b,c)" spec)

let pp ppf (s : t) =
  Format.fprintf ppf
    "@[<v>latencies: %s@ policies: %s@ libraries: %s@ balance: %s@ recipes: %s@ iterates: %s@ jobs: %d@]"
    (String.concat ", " (List.map string_of_int s.latencies))
    (String.concat ", " (List.map policy_name s.policies))
    (String.concat ", " (List.map fst s.libs))
    (String.concat ", " (List.map string_of_bool s.balance))
    (String.concat ", " s.recipes)
    (String.concat ", " (List.map string_of_int s.iterates))
    (size s)
