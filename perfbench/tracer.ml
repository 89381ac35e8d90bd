(* Spans recorded by the benchmark around its own calls into each layer's
   public functions.  Spans are kept in memory and written out when the
   run ends; a disarmed tracer runs the wrapped call and records nothing.

   A span's name is "<layer>.<what>", where the layer is the lib/
   directory the called function lives in.  Its self time is its duration
   minus the time its direct children cover. *)

type span = {
  sid : int;
  name : string;
  op : int;  (** the op the span belongs to *)
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable armed : bool;
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable op : int;
  counts : (string, float) Hashtbl.t;
}

let create ~armed =
  { armed; spans = []; next = 0; stack = []; op = -1;
    counts = Hashtbl.create 16 }

let disarmed = create ~armed:false
let now = Unix.gettimeofday

(* Run [f] as a span named [name], a child of the innermost open span. *)
let span t name f =
  if not t.armed then f ()
  else begin
    let sid = t.next in
    t.next <- sid + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- sid :: t.stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { sid; name; op = t.op; parent; t0; t1 } :: t.spans
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* Spans opened from here on belong to op [id]. *)
let set_op t id = t.op <- id

(* Add [n] to the work count [name]; counts accumulate only when armed. *)
let count t name n =
  if t.armed then
    Hashtbl.replace t.counts name
      (n +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.)

let counted t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.
let spans t = List.rev t.spans

(* Total self time in seconds per span name, over the spans [keep]
   selects. *)
let self_times ?(keep = fun _ -> true) t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    t.spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if keep s then
      let own =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.sid) ~default:0.
      in
      Hashtbl.replace self s.name
        (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.))
    t.spans;
  self

(* Total duration in seconds per span name. *)
let durations t =
  let d = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Hashtbl.replace d s.name
        (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt d s.name) ~default:0.))
    t.spans;
  d

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* The spans as JSON, times in microseconds from the first span. *)
let to_json t =
  let spans = spans t in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let us x = Printf.sprintf "%.1f" ((x -. base) *. 1e6) in
  let one s =
    Printf.sprintf
      {|{"id":%d,"name":"%s","layer":"%s","op":%d,"parent":%d,"start_us":%s,"end_us":%s}|}
      s.sid s.name (layer_of s.name) s.op s.parent (us s.t0) (us s.t1)
  in
  "[\n" ^ String.concat ",\n" (List.map one spans) ^ "\n]\n"
